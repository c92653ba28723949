type t = {
  n : int;
  susp : int array;  (* n rows of n ints; process p's row starts at p * n *)
  cached_max : int array;  (* per process: exact max of its row *)
  cached_min : int array;  (* per process: min of its row, maybe stale *)
  min_stale : bool array;  (* per process: must the min be recomputed? *)
  cached_leader : int array;  (* per process: argmin of (level, pid), maybe stale *)
  leader_stale : bool array;  (* per process: must the leader be recomputed? *)
}

let create ~n =
  if n <= 0 then invalid_arg "Store.create: n must be positive";
  {
    n;
    susp = Array.make (n * n) 0;
    cached_max = Array.make n 0;
    cached_min = Array.make n 0;
    min_stale = Array.make n false;
    (* An all-zero row's leader is pid 0. *)
    cached_leader = Array.make n 0;
    leader_stale = Array.make n false;
  }

let n t = t.n
let susp t = t.susp
let max_level t p = t.cached_max.(p)

(* Levels only rise, so a raise can only move a cached extremum that the
   raised entry itself held: the min when the entry sat at it, the leader
   when the entry is the leader's — every other (level, pid) pair still
   sorts after the leader's. *)
let raise_level t p k level =
  let i = (p * t.n) + k in
  if t.susp.(i) = t.cached_min.(p) then t.min_stale.(p) <- true;
  if k = t.cached_leader.(p) then t.leader_stale.(p) <- true;
  t.susp.(i) <- level;
  if level > t.cached_max.(p) then t.cached_max.(p) <- level

let min_level t p =
  if t.min_stale.(p) then begin
    let susp = t.susp and base = p * t.n in
    let m = ref susp.(base) in
    for k = 1 to t.n - 1 do
      if susp.(base + k) < !m then m := susp.(base + k)
    done;
    t.cached_min.(p) <- !m;
    t.min_stale.(p) <- false
  end;
  t.cached_min.(p)

let leader t p =
  if t.leader_stale.(p) then begin
    let susp = t.susp and base = p * t.n in
    let best = ref 0 in
    for j = 1 to t.n - 1 do
      if susp.(base + j) < susp.(base + !best) then best := j
    done;
    t.cached_leader.(p) <- !best;
    t.leader_stale.(p) <- false
  end;
  t.cached_leader.(p)
