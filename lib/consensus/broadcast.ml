type pid = int

type 'v msg =
  | Cons of { instance : int; m : 'v list Message.t }
  | Forward of { cmd : 'v }

let info = function
  | Cons { m; _ } ->
      let i = Message.info m in
      { i with Obs.Event.bytes = i.Obs.Event.bytes + 4 }
  | Forward _ -> { Obs.Event.kind = "forward"; round = -1; bytes = 5 }

type 'v t = {
  net : 'v msg Net.Network.t;
  engine : Sim.Engine.t;
  rng : Dstruct.Rng.t;
  me : pid;
  oracle : unit -> pid;
  retry_every : Sim.Time.t;
  crash_bound : int;
  equal : 'v -> 'v -> bool;
  instances : (int, 'v list Node.t) Hashtbl.t;
  mutable submitted : 'v list;  (* my own commands (newest first) *)
  mutable pending : 'v list;  (* commands I am responsible for sequencing *)
  mutable delivered_rev : 'v list;
  mutable next_deliver : int;  (* lowest undelivered instance *)
  mutable proposed_upto : int;  (* instances this node has proposed to *)
}

let halted t = Net.Network.is_crashed t.net t.me

let mem t cmd xs = List.exists (t.equal cmd) xs

let is_delivered t cmd = mem t cmd t.delivered_rev

(* Lazily materialize the consensus node of an instance, its messages tagged
   with the instance id and demultiplexed by [on_message]. *)
let instance t k =
  match Hashtbl.find_opt t.instances k with
  | Some node -> node
  | None ->
      let transport =
        {
          Node.engine = t.engine;
          n = Net.Network.n t.net;
          send =
            (fun ~dst m ->
              Net.Network.send t.net ~src:t.me ~dst (Cons { instance = k; m }));
          halted = (fun () -> halted t);
        }
      in
      (* Instances appear at run time, inside this process's handlers and
         driver, so they split off this process's own stream: a draw from
         the engine root here would diverge across shards. *)
      let node =
        Node.create transport ~me:t.me ~rng:t.rng ~leader_oracle:t.oracle
          ~retry_every:t.retry_every ~crash_bound:t.crash_bound
      in
      Hashtbl.add t.instances k node;
      Node.start node;
      node

(* Deliver decided instances strictly in order, de-duplicating commands
   decided by more than one instance (a command can be re-proposed after a
   lost batch). *)
let advance_delivery t =
  let rec step () =
    match Hashtbl.find_opt t.instances t.next_deliver with
    | Some node -> (
        match Node.decision node with
        | Some batch ->
            List.iter
              (fun cmd ->
                if not (is_delivered t cmd) then
                  t.delivered_rev <- cmd :: t.delivered_rev)
              batch;
            t.pending <-
              List.filter (fun cmd -> not (is_delivered t cmd)) t.pending;
            t.next_deliver <- t.next_deliver + 1;
            step ()
        | None -> ())
    | None -> ()
  in
  step ()

let on_forward t cmd =
  if not (is_delivered t cmd || mem t cmd t.pending) then
    t.pending <- t.pending @ [ cmd ]

let on_message t ~src msg =
  if not (halted t) then begin
    (match msg with
    | Cons { instance = k; m } -> Node.handle (instance t k) ~src m
    | Forward { cmd } -> on_forward t cmd);
    advance_delivery t
  end

(* Periodic driver: re-forward my undelivered commands to the current
   leader, and, if I believe I am the leader, propose my pending batch to
   the lowest instance I have not proposed to yet. *)
let rec driver t =
  if not (halted t) then begin
    advance_delivery t;
    let leader = t.oracle () in
    List.iter
      (fun cmd ->
        if not (is_delivered t cmd) then begin
          if leader = t.me then on_forward t cmd
          else Net.Network.send t.net ~src:t.me ~dst:leader (Forward { cmd })
        end)
      (List.rev t.submitted);
    if leader = t.me then begin
      let batch =
        List.filter (fun cmd -> not (is_delivered t cmd)) t.pending
      in
      if batch <> [] && t.proposed_upto <= t.next_deliver then begin
        let k = max t.next_deliver t.proposed_upto in
        Node.propose (instance t k) batch;
        t.proposed_upto <- k + 1
      end
    end;
    let period_us = Sim.Time.to_us t.retry_every in
    let period = period_us + Dstruct.Rng.int t.rng (max 1 (period_us / 2)) in
    Sim.Engine.call_after t.engine (Sim.Time.of_us period) driver t
  end

let create net ~me ~oracle ~retry_every ~crash_bound ~equal =
  let t =
    {
      net;
      engine = Net.Network.engine net;
      rng = Dstruct.Rng.split (Sim.Engine.rng (Net.Network.engine net));
      me;
      oracle;
      retry_every;
      crash_bound;
      equal;
      instances = Hashtbl.create 16;
      submitted = [];
      pending = [];
      delivered_rev = [];
      next_deliver = 0;
      proposed_upto = 0;
    }
  in
  Net.Network.set_handler net me (fun ~src msg -> on_message t ~src msg);
  t

let start t =
  (* The driver chain is this process's code, created under its rank. *)
  Sim.Engine.set_rank t.engine t.me;
  let offset = Dstruct.Rng.int t.rng (max 1 (Sim.Time.to_us t.retry_every)) in
  Sim.Engine.call_after t.engine (Sim.Time.of_us offset) driver t

let submit t cmd =
  if not (mem t cmd t.submitted) then t.submitted <- cmd :: t.submitted

let delivered t = List.rev t.delivered_rev

let instances_decided t =
  Hashtbl.fold
    (fun _ node acc -> if Option.is_some (Node.decision node) then acc + 1 else acc)
    t.instances 0
