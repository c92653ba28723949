type pid = int

(* First-class algorithm surface (DESIGN.md §15): everything the harness,
   the fault injector and the experiments need from a running cluster,
   with no reference to which algorithm is behind it. Constructing one
   allocates a handful of closures once per run and draws no randomness,
   so routing a run through it leaves the event stream untouched. *)
type t = {
  config : Config.t;
  net : Message.t Net.Network.t;
  start : unit -> unit;
  leader_of : pid -> pid;
  recover : pid -> unit;
  resync : pid -> unit;
  sending_round : pid -> int;
  receiving_round : pid -> int;
  max_susp_level_seen : pid -> int;
  max_timeout_armed : pid -> Sim.Time.t;
  lattice_invariant_holds : pid -> bool;
  round_state_cardinal : pid -> int;
}

let config t = t.config
let net t = t.net
let engine t = Net.Network.engine t.net
let n t = Net.Network.n t.net
let start t = t.start ()
let leader_of t p = t.leader_of p
let recover t p = t.recover p
let resync t p = t.resync p
let sending_round t p = t.sending_round p
let receiving_round t p = t.receiving_round p
let max_susp_level_seen t p = t.max_susp_level_seen p
let max_timeout_armed t p = t.max_timeout_armed p
let lattice_invariant_holds t p = t.lattice_invariant_holds p
let round_state_cardinal t p = t.round_state_cardinal p

let crash_at t p time =
  let net = t.net in
  ignore
    (Sim.Engine.schedule_at (engine t) time (fun () ->
         Net.Network.crash net p))

(* [agreed_leader] walks the pids once and allocates only the [Some]:
   the harness sampler calls it every 100 ms of simulated time. Top-level
   helpers, so no closure is built per call. *)
let rec first_correct net p =
  if p < Net.Network.n net && Net.Network.is_crashed net p then
    first_correct net (p + 1)
  else p

let rec all_name t l p =
  p = Net.Network.n t.net
  || (Net.Network.is_crashed t.net p || t.leader_of p = l)
     && all_name t l (p + 1)

let agreed_leader t =
  let p = first_correct t.net 0 in
  if p = Net.Network.n t.net then None
  else
    let l = t.leader_of p in
    if all_name t l (p + 1) && not (Net.Network.is_crashed t.net l) then
      Some l
    else None
