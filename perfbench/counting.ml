(* Counting sink: exact per-layer event counts of one run, by event class
   and, for Send events, by message kind. It also folds the two engine
   shapes the engine probe replays: the mean number of live events at each
   Fire (in-flight depth) and a log2 histogram of scheduling delays. *)

type t = {
  mutable fire : int;
  mutable cancel : int;
  mutable send : int;
  mutable deliver : int;
  mutable drop : int;
  mutable hop : int;
  mutable link_drop : int;
  mutable round_close : int;
  mutable suspicion : int;
  mutable leader_change : int;
  mutable relay_round : int;
  mutable accusation : int;
  mutable fault : int;  (** Partition, Recover, Edge_fault, Rack_fault *)
  mutable live : int;
  mutable live_sum : float;
  kinds : (string, int ref) Hashtbl.t;
  delay_log2 : int array;  (** bucket [b] holds delays in [[2^b, 2^(b+1))] *)
}

let create () =
  {
    fire = 0;
    cancel = 0;
    send = 0;
    deliver = 0;
    drop = 0;
    hop = 0;
    link_drop = 0;
    round_close = 0;
    suspicion = 0;
    leader_change = 0;
    relay_round = 0;
    accusation = 0;
    fault = 0;
    live = 0;
    live_sum = 0.;
    kinds = Hashtbl.create 8;
    delay_log2 = Array.make 63 0;
  }

let log2 d =
  let rec go d b = if d <= 1 then b else go (d lsr 1) (b + 1) in
  go d 0

let on_send t (info : Obs.Event.msg_info) =
  t.send <- t.send + 1;
  match Hashtbl.find_opt t.kinds info.kind with
  | Some r -> incr r
  | None -> Hashtbl.add t.kinds info.kind (ref 1)

let on_event t (ev : Obs.Event.t) =
  let open Obs.Event in
  match ev with
  | Sched { now; at } ->
      t.live <- t.live + 1;
      let b = log2 (at - now) in
      t.delay_log2.(b) <- t.delay_log2.(b) + 1
  | Fire _ ->
      t.fire <- t.fire + 1;
      t.live_sum <- t.live_sum +. float t.live;
      t.live <- t.live - 1
  | Cancel _ ->
      t.cancel <- t.cancel + 1;
      t.live <- t.live - 1
  | Send { kind; round; bytes; _ } -> on_send t { kind; round; bytes }
  | Deliver _ -> t.deliver <- t.deliver + 1
  | Drop _ -> t.drop <- t.drop + 1
  | Hop _ -> t.hop <- t.hop + 1
  | Link_drop _ -> t.link_drop <- t.link_drop + 1
  | Round_close _ -> t.round_close <- t.round_close + 1
  | Suspicion _ -> t.suspicion <- t.suspicion + 1
  | Leader_change _ -> t.leader_change <- t.leader_change + 1
  | Relay_round _ -> t.relay_round <- t.relay_round + 1
  | Accusation _ -> t.accusation <- t.accusation + 1
  | Partition _ | Recover _ | Edge_fault _ | Rack_fault _ ->
      t.fault <- t.fault + 1
  | Timer_fire _ | Duplicate _ | Round_open _ | Ballot_open _ | Decided _
  | Adversary_move _ ->
      ()

let sink t =
  let scalar =
    {
      Obs.Sink.s_send = (fun ~now:_ ~seq:_ ~src:_ ~dst:_ info -> on_send t info);
      s_deliver =
        (fun ~now:_ ~sent_at:_ ~seq:_ ~src:_ ~dst:_ _ ->
          t.deliver <- t.deliver + 1);
      s_drop = (fun ~now:_ ~seq:_ ~src:_ ~dst:_ _ -> t.drop <- t.drop + 1);
      s_hop = (fun ~now:_ ~seq:_ ~src:_ ~dst:_ ~via:_ _ -> t.hop <- t.hop + 1);
      s_link_drop =
        (fun ~now:_ ~seq:_ ~src:_ ~dst:_ ~hop_src:_ ~hop_dst:_ _ ->
          t.link_drop <- t.link_drop + 1);
    }
  in
  Obs.Sink.make ~scalar ~mask:Obs.Event.all (on_event t)

(* Sends of one message kind ("alive", "susp", "hb", "agg", "accuse"). *)
let sends_of t kind =
  match Hashtbl.find_opt t.kinds kind with Some r -> !r | None -> 0

(* Mean live events seen by each Fire: the engine's in-flight depth. *)
let mean_depth t = if t.fire = 0 then 1 else max 1 (int_of_float (t.live_sum /. float t.fire))
