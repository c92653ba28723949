type pid = int

(* HEARTBEAT's [rn] is the sender's epoch, so the scenario adversary
   victimizes these messages by epoch
   ({!Scenarios.Scenario.round_rn_of_omega}), as it does ALIVE by round. *)

type node = {
  cfg : Config.t;
  net : Message.t Net.Network.t;
  engine : Sim.Engine.t;
  rng : Dstruct.Rng.t;
  me : pid;
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
      t.timeout.(src) <- Sim.Time.add t.timeout.(src) t.cfg.Config.initial_timeout
    end;
    arm t src
  end

let on_deadline t j () = if not (halted t) then t.suspected.(j) <- true

let rec heartbeat_task t =
  if not (halted t) then begin
    t.epoch <- t.epoch + 1;
    Net.Network.broadcast t.net ~src:t.me (Message.Heartbeat { rn = t.epoch });
    let beta_us = Sim.Time.to_us t.cfg.Config.beta in
    let low = max 1 (beta_us * 4 / 5) in
    let period = Dstruct.Rng.int_in t.rng low beta_us in
    Sim.Engine.call_after t.engine (Sim.Time.of_us period) heartbeat_task t
  end

let create_node cfg net ~me =
  let engine = Net.Network.engine net in
  let n = cfg.Config.n in
  (* Timers need the node for their expiry action: fill in after. *)
  let placeholder = Sim.Timer.create engine ~on_expire:ignore in
  let t =
    {
      cfg;
      net;
      engine;
      rng = Dstruct.Rng.split (Sim.Engine.rng engine);
      me;
      epoch = 0;
      suspected = Array.make n false;
      timeout = Array.make n cfg.Config.initial_timeout;
      deadline = Array.make n placeholder;
    }
  in
  for j = 0 to n - 1 do
    t.deadline.(j) <- Sim.Timer.create engine ~on_expire:(on_deadline t j)
  done;
  Net.Network.set_handler net me (fun ~src _ -> on_heartbeat t ~src);
  t

type t = { nodes : node array; net : Message.t Net.Network.t }

let create cfg net =
  Config.validate cfg;
  if Net.Network.n net <> cfg.Config.n then
    invalid_arg "Heartbeat.create: network size differs from config";
  { nodes = Array.init cfg.Config.n (fun me -> create_node cfg net ~me); net }

let start_node t =
  (* Everything scheduled below is created by this process. *)
  Sim.Engine.set_rank t.engine t.me;
  for j = 0 to t.cfg.Config.n - 1 do
    if j <> t.me then arm t j
  done;
  let offset = Dstruct.Rng.int t.rng (max 1 (Sim.Time.to_us t.cfg.Config.beta)) in
  Sim.Engine.call_after t.engine (Sim.Time.of_us offset) heartbeat_task t

(* [owned] — see {!Cluster.start}. *)
let start ?owned c =
  match owned with
  | None -> Array.iter start_node c.nodes
  | Some mine ->
      Array.iteri (fun i nd -> if mine i then start_node nd) c.nodes

let leader t =
  let rec first j =
    if j >= t.cfg.Config.n then t.me
    else if t.suspected.(j) then first (j + 1)
    else j
  in
  first 0

let iface c : Iface.t =
  let nd i = c.nodes.(i) in
  {
    Iface.config = (nd 0).cfg;
    net = c.net;
    start = (fun () -> start c);
    leader_of = (fun p -> leader (nd p));
    recover =
      (fun _ -> invalid_arg "Heartbeat: a heartbeat node cannot recover");
    (* No round-indexed state to re-seat: the next heartbeat re-arms the
       deadline. *)
    resync = ignore;
    (* The epoch is the one clock, sent and judged alike. *)
    sending_round = (fun p -> (nd p).epoch);
    receiving_round = (fun p -> (nd p).epoch);
    max_susp_level_seen = (fun _ -> 0);
    (* Timeouts only grow, and each is armed as soon as it grows. *)
    max_timeout_armed =
      (fun p -> Array.fold_left Sim.Time.max Sim.Time.zero (nd p).timeout);
    lattice_invariant_holds = (fun _ -> true);
    round_state_cardinal = (fun _ -> 0);
  }

let suspected c p =
  let acc = ref [] in
  Array.iteri (fun j s -> if s then acc := j :: !acc) c.nodes.(p).suspected;
  List.rev !acc
