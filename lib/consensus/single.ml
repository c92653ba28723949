type pid = int

type 'v t = { nodes : 'v Node.t array; net : 'v Message.t Net.Network.t }

let create net ~oracle ~retry_every ~crash_bound =
  let n = Net.Network.n net in
  let nodes =
    Array.init n (fun me ->
        Node.create
          (Node.network_transport net ~me)
          ~me ~rng:(Sim.Engine.rng (Net.Network.engine net))
          ~leader_oracle:(oracle me) ~retry_every ~crash_bound)
  in
  Array.iteri
    (fun me node ->
      Net.Network.set_handler net me (fun ~src msg -> Node.handle node ~src msg))
    nodes;
  { nodes; net }

let start t = Array.iter Node.start t.nodes
let propose t p v = Node.propose t.nodes.(p) v
let node t p = t.nodes.(p)

let decisions t =
  List.map
    (fun p -> (p, Node.decision t.nodes.(p)))
    (Net.Network.correct t.net)

let agreement decided =
  let value =
    match decided with
    | ((Some _ as first), _) :: rest
      when List.for_all (fun (d, _) -> d = first) rest ->
        first
    | _ -> None
  in
  let times = List.filter_map snd decided in
  let latest =
    if times <> [] && List.length times = List.length decided then
      Some (List.fold_left Sim.Time.max Sim.Time.zero times)
    else None
  in
  (value, latest)

let agreement_of t =
  agreement
    (List.map
       (fun p -> (Node.decision t.nodes.(p), Node.decided_at t.nodes.(p)))
       (Net.Network.correct t.net))

let uniform_decision t = fst (agreement_of t)
let last_decision_time t = snd (agreement_of t)
