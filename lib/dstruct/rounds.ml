(* A power-of-two ring over the live span [[lo, hi]]: round [rn] sits at
   slot [rn land mask], with one value column and one live-flag byte
   column. Every live round lies in the span and the span is shorter than
   the capacity, so two live rounds never share a slot; a key outside the
   span widens it and doubles the capacity until it fits. [lo] and [hi]
   are the exact lowest and highest live rounds ([lo > hi] when the table
   is empty), and every live round is [>= floor]. *)

(* Element type of the value column, for the reason [Sim.Engine]'s
   argument column has one: a variant is known to be an address or an
   immediate, so the column gets plain loads and stores where an ['a array]
   would test for a flat float array on each. The constructor is never
   applied; values go in and out through [Obj.magic]. A cleared slot holds
   [no_value], so the ring keeps no discarded value reachable. *)
type slot = Slot of int [@@warning "-37"]

let no_value : slot = Obj.magic ()

type 'a t = {
  mutable vals : slot array;
  mutable live : Bytes.t;
  mutable mask : int;  (* capacity - 1 *)
  mutable lo : int;
  mutable hi : int;
  mutable count : int;
  mutable floor : int;
}

let initial_capacity = 16

let create () =
  {
    vals = Array.make initial_capacity no_value;
    live = Bytes.make initial_capacity '\000';
    mask = initial_capacity - 1;
    lo = max_int;
    hi = min_int;
    count = 0;
    floor = 0;
  }

let floor t = t.floor
let cardinal t = t.count

let check_live t rn ~op =
  if rn < t.floor then
    invalid_arg
      (Printf.sprintf "Rounds.%s: round %d below floor %d" op rn t.floor)

(* Slot accessors. Every index is [rn land mask] and both columns have
   [mask + 1] entries, so the accesses skip bounds checks. *)
let[@inline] is_live t i = Bytes.unsafe_get t.live i <> '\000'
let[@inline] value t i : 'a = Obj.magic (Array.unsafe_get t.vals i)

let[@inline] clear t i =
  Array.unsafe_set t.vals i no_value;
  Bytes.unsafe_set t.live i '\000'

(* The span test also covers the floor, since every live round is at or
   above it. *)
let[@inline] mem t rn = rn >= t.lo && rn <= t.hi && is_live t (rn land t.mask)

(* Allocation-free: the hit path is two loads, and [Not_found] is a
   constant exception. *)
let find_exn t rn =
  if mem t rn then value t (rn land t.mask) else raise Not_found

let find t rn =
  match find_exn t rn with v -> Some v | exception Not_found -> None

(* Re-place the live rounds of the old span [[lo, hi]] into a ring that
   holds [[lo', hi']]. The walk must cover the old span over the old
   slots: walking the new span would read rounds that alias onto the old
   slots of others. *)
let grow t ~lo' ~hi' =
  let cap = ref (t.mask + 1) in
  while hi' - lo' >= !cap do
    cap := 2 * !cap
  done;
  let vals = Array.make !cap no_value and live = Bytes.make !cap '\000' in
  let mask = !cap - 1 in
  for rn = t.lo to t.hi do
    let i = rn land t.mask in
    if is_live t i then begin
      let j = rn land mask in
      Array.unsafe_set vals j (Array.unsafe_get t.vals i);
      Bytes.unsafe_set live j '\001'
    end
  done;
  t.vals <- vals;
  t.live <- live;
  t.mask <- mask

(* Store [v] for the absent round [rn >= floor]. *)
let insert t rn v =
  if t.count = 0 then begin
    t.lo <- rn;
    t.hi <- rn
  end
  else if rn < t.lo then begin
    if t.hi - rn > t.mask then grow t ~lo':rn ~hi':t.hi;
    t.lo <- rn
  end
  else if rn > t.hi then begin
    if rn - t.lo > t.mask then grow t ~lo':t.lo ~hi':rn;
    t.hi <- rn
  end;
  let i = rn land t.mask in
  Array.unsafe_set t.vals i (Obj.magic v : slot);
  Bytes.unsafe_set t.live i '\001';
  t.count <- t.count + 1

let find_or_add t rn ~default =
  check_live t rn ~op:"find_or_add";
  if mem t rn then value t (rn land t.mask)
  else begin
    let v = default () in
    insert t rn v;
    v
  end

let set t rn v =
  check_live t rn ~op:"set";
  if mem t rn then Array.unsafe_set t.vals (rn land t.mask) (Obj.magic v : slot)
  else insert t rn v

(* Re-tighten the span after removals: the first live round at or above
   [from], and the last at or below [until]. Both exist whenever the table
   is non-empty and [from]/[until] bracket a live round. *)
let rec first_live t from =
  if is_live t (from land t.mask) then from else first_live t (from + 1)

let rec last_live t until =
  if is_live t (until land t.mask) then until else last_live t (until - 1)

let make_empty t =
  t.lo <- max_int;
  t.hi <- min_int

(* Live rounds below [bound] all lie in [[lo, min hi (bound - 1)]], walked
   in ascending order, so [recycle] sees the values in round order and the
   walk costs the pruned span, not the rounds ever lived. An empty table
   has [lo = max_int], so it walks nothing. *)
let prune_below ~recycle t bound =
  if bound > t.floor then begin
    if t.lo < bound then begin
      let top = if t.hi < bound then t.hi else bound - 1 in
      for rn = t.lo to top do
        let i = rn land t.mask in
        if is_live t i then begin
          let v = value t i in
          clear t i;
          t.count <- t.count - 1;
          recycle v
        end
      done;
      if t.count = 0 then make_empty t else t.lo <- first_live t bound
    end;
    t.floor <- bound
  end

(* Unlike [prune_below] this does not advance the floor: the caller keeps
   its own record of which rounds were collapsed away (Omega.Node's
   [full_upto] prefix) and must not let later lookups below the floor
   raise. The span still shrinks to the live rounds, so a table whose
   prefix is removed round by round stays as wide as its live gap. *)
let remove ~recycle t rn =
  check_live t rn ~op:"remove";
  if mem t rn then begin
    let i = rn land t.mask in
    let v = value t i in
    clear t i;
    t.count <- t.count - 1;
    if t.count = 0 then make_empty t
    else begin
      if rn = t.lo then t.lo <- first_live t (rn + 1);
      if rn = t.hi then t.hi <- last_live t (rn - 1)
    end;
    recycle v
  end

let max_round t = if t.count = 0 then None else Some t.hi
