type pid = int

type t = { nodes : Node.t array; net : Message.t Net.Network.t }

let create cfg net =
  let n = Net.Network.n net in
  (* One struct-of-arrays store for the whole cluster: every node's hot row
     lives in the same flat arrays (DESIGN.md §14). *)
  let store = Store.create ~n in
  let nodes = Array.init n (fun me -> Node.create ~store cfg net ~me) in
  { nodes; net }

(* [owned] filters which nodes start — a sharded replica builds all [n]
   nodes (construction splits each node's RNG off the engine stream, so
   building the full set keeps replicas' streams aligned) but runs only
   its own. Each start stamps events under the node's own rank, so
   starting a subset in pid order draws exactly the sequential keys. *)
let start ?owned t =
  match owned with
  | None -> Array.iter Node.start t.nodes
  | Some mine ->
      Array.iteri (fun i nd -> if mine i then Node.start nd) t.nodes

let node t i = t.nodes.(i)

let crash_at t p time =
  ignore
    (Sim.Engine.schedule_at (Net.Network.engine t.net) time (fun () ->
         Net.Network.crash t.net p))

let leaders t =
  List.map
    (fun p -> (p, Node.leader t.nodes.(p)))
    (Net.Network.correct t.net)

let iface t : Iface.t =
  let nd i = t.nodes.(i) in
  {
    Iface.config = Node.config (nd 0);
    net = t.net;
    start = (fun () -> Array.iter Node.start t.nodes);
    leader_of = (fun p -> Node.leader (nd p));
    recover =
      (fun p ->
        Net.Network.recover t.net p;
        Node.recover (nd p));
    resync = (fun p -> Node.resync (nd p));
    sending_round = (fun p -> Node.sending_round (nd p));
    receiving_round = (fun p -> Node.receiving_round (nd p));
    max_susp_level_seen = (fun p -> Node.max_susp_level_seen (nd p));
    max_timeout_armed = (fun p -> Node.max_timeout_armed (nd p));
    lattice_invariant_holds = (fun p -> Node.lattice_invariant_holds (nd p));
    round_state_cardinal = (fun p -> Node.round_state_cardinal (nd p));
  }

let agreed_leader t = Iface.agreed_leader (iface t)
