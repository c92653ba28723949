type pid = int

type msg = Heartbeat of { epoch : int }

let round_of (Heartbeat { epoch }) = epoch

type t = {
  net : msg Net.Network.t;
  engine : Sim.Engine.t;
  rng : Dstruct.Rng.t;
  me : pid;
  beta : Sim.Time.t;
  initial_timeout : Sim.Time.t;
  mutable epoch : int;
  suspected : bool array;
  timeout : Sim.Time.t array;  (* adaptive per-sender timeout *)
  deadline : Sim.Timer.t array;  (* per-sender deadline timer *)
}

let halted t = Net.Network.is_crashed t.net t.me

let arm t j = Sim.Timer.set t.deadline.(j) t.timeout.(j)

let on_heartbeat t ~src =
  if not (halted t) then begin
    if t.suspected.(src) then begin
      (* False suspicion: the deadline was too short — lengthen it by one
         initial timeout. The adaptation is additive, like the paper
         family's suspicion-level-driven timeouts (an exponential backoff
         would eventually outrun any polynomially growing adversary and
         blur the comparison). *)
      t.suspected.(src) <- false;
      t.timeout.(src) <- Sim.Time.add t.timeout.(src) t.initial_timeout
    end;
    arm t src
  end

let on_deadline t j () = if not (halted t) then t.suspected.(j) <- true

let rec heartbeat_task t =
  if not (halted t) then begin
    t.epoch <- t.epoch + 1;
    Net.Network.broadcast t.net ~src:t.me (Heartbeat { epoch = t.epoch });
    let beta_us = Sim.Time.to_us t.beta in
    let low = max 1 (beta_us * 4 / 5) in
    let period = Dstruct.Rng.int_in t.rng low beta_us in
    Sim.Engine.call_after t.engine (Sim.Time.of_us period) heartbeat_task t
  end

let create net ~me ~beta ~initial_timeout =
  let engine = Net.Network.engine net in
  let n = Net.Network.n net in
  let t =
    {
      net;
      engine;
      rng = Dstruct.Rng.split (Sim.Engine.rng engine);
      me;
      beta;
      initial_timeout;
      epoch = 0;
      suspected = Array.make n false;
      timeout = Array.make n initial_timeout;
      deadline = Array.init n (fun _ -> Sim.Timer.create engine ~on_expire:ignore);
    }
  in
  (* Recreate deadline timers with the right expiry actions (they need [t]). *)
  for j = 0 to n - 1 do
    t.deadline.(j) <- Sim.Timer.create engine ~on_expire:(on_deadline t j)
  done;
  Net.Network.set_handler net me (fun ~src _msg -> on_heartbeat t ~src);
  t

let start_node t =
  let n = Net.Network.n t.net in
  for j = 0 to n - 1 do
    if j <> t.me then arm t j
  done;
  let offset = Dstruct.Rng.int t.rng (max 1 (Sim.Time.to_us t.beta)) in
  Sim.Engine.call_after t.engine (Sim.Time.of_us offset) heartbeat_task t

let node_leader t =
  let n = Net.Network.n t.net in
  let rec first j = if j >= n then t.me else if t.suspected.(j) then first (j + 1) else j in
  first 0

type cluster = { nodes : t array; cnet : msg Net.Network.t }

let create_cluster net ~beta ~initial_timeout =
  let n = Net.Network.n net in
  {
    nodes = Array.init n (fun me -> create net ~me ~beta ~initial_timeout);
    cnet = net;
  }

let start c = Array.iter start_node c.nodes
let leader c p = node_leader c.nodes.(p)

let agreed_leader c =
  match Net.Network.correct c.cnet with
  | [] -> None
  | p :: rest ->
      let l = leader c p in
      if
        List.for_all (fun q -> leader c q = l) rest
        && not (Net.Network.is_crashed c.cnet l)
      then Some l
      else None

let min_epoch c =
  List.fold_left
    (fun acc p -> min acc c.nodes.(p).epoch)
    max_int
    (Net.Network.correct c.cnet)

let suspected c p =
  let node = c.nodes.(p) in
  let acc = ref [] in
  Array.iteri (fun j s -> if s then acc := j :: !acc) node.suspected;
  List.rev !acc
