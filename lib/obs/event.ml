type msg_info = { kind : string; round : int; bytes : int }

let no_info = { kind = "msg"; round = -1; bytes = 0 }

type t =
  | Sched of { now : int; at : int }
  | Fire of { now : int }
  | Cancel of { now : int }
  | Timer_fire of { now : int }
  | Send of {
      now : int;
      seq : int;
      src : int;
      dst : int;
      kind : string;
      round : int;
      bytes : int;
    }
  | Deliver of {
      now : int;
      sent_at : int;
      seq : int;
      src : int;
      dst : int;
      kind : string;
      round : int;
      bytes : int;
    }
  | Drop of {
      now : int;
      seq : int;
      src : int;
      dst : int;
      kind : string;
      round : int;
      bytes : int;
    }
  | Duplicate of { now : int; src : int; dst : int; seq : int }
  | Round_open of { now : int; pid : int; rn : int }
  | Round_close of { now : int; pid : int; rn : int; suspected : int }
  | Suspicion of { now : int; pid : int; target : int; level : int }
  | Leader_change of { now : int; pid : int; leader : int }
  | Ballot_open of { now : int; pid : int; ballot : int }
  | Decided of { now : int; pid : int; ballot : int }
  | Partition of { now : int; groups : int }
  | Recover of { now : int; pid : int }
  | Adversary_move of { now : int; target : int }
  | Relay_round of { now : int; pid : int; rn : int; stale : int }
  | Accusation of { now : int; pid : int; target : int; level : int }
  | Hop of {
      now : int;
      seq : int;
      src : int;
      dst : int;
      via : int;
      kind : string;
      round : int;
      bytes : int;
    }
  | Link_drop of {
      now : int;
      seq : int;
      src : int;
      dst : int;
      hop_src : int;
      hop_dst : int;
      kind : string;
      round : int;
      bytes : int;
    }
  | Edge_fault of { now : int; a : int; b : int; state : int }
  | Rack_fault of { now : int; rack : int; state : int }

let c_engine = 1
let c_timer = 2
let c_net = 4
let c_omega = 8
let c_consensus = 16
let c_fault = 32

let all =
  c_engine lor c_timer lor c_net lor c_omega lor c_consensus lor c_fault

let class_of = function
  | Sched _ | Fire _ | Cancel _ -> c_engine
  | Timer_fire _ -> c_timer
  | Send _ | Deliver _ | Drop _ | Duplicate _ | Hop _ | Link_drop _ -> c_net
  | Round_open _ | Round_close _ | Suspicion _ | Leader_change _
  | Relay_round _ | Accusation _ -> c_omega
  | Ballot_open _ | Decided _ -> c_consensus
  | Partition _ | Recover _ | Adversary_move _ | Edge_fault _ | Rack_fault _
    -> c_fault

let name = function
  | Sched _ -> "sched"
  | Fire _ -> "fire"
  | Cancel _ -> "cancel"
  | Timer_fire _ -> "timer_fire"
  | Send _ -> "send"
  | Deliver _ -> "deliver"
  | Drop _ -> "drop"
  | Duplicate _ -> "dup"
  | Round_open _ -> "round_open"
  | Round_close _ -> "round_close"
  | Suspicion _ -> "suspicion"
  | Leader_change _ -> "leader_change"
  | Ballot_open _ -> "ballot_open"
  | Decided _ -> "decided"
  | Partition _ -> "partition"
  | Recover _ -> "recover"
  | Adversary_move _ -> "adversary_move"
  | Relay_round _ -> "relay_round"
  | Accusation _ -> "accusation"
  | Hop _ -> "hop"
  | Link_drop _ -> "link_drop"
  | Edge_fault _ -> "edge_fault"
  | Rack_fault _ -> "rack_fault"

(* Small integer tags for digesting; must stay stable across PRs or pinned
   digests in tests/CI change meaning. Append-only. The named constants are
   for the scalar fast lane (sinks folding Send/Deliver/Drop fields without
   an event value to pass to [tag]). *)
let tag_send = 5
let tag_deliver = 6
let tag_drop = 7
let tag_hop = 20
let tag_link_drop = 21

let tag = function
  | Sched _ -> 1
  | Fire _ -> 2
  | Cancel _ -> 3
  | Timer_fire _ -> 4
  | Send _ -> tag_send
  | Deliver _ -> tag_deliver
  | Drop _ -> tag_drop
  | Duplicate _ -> 8
  | Round_open _ -> 9
  | Round_close _ -> 10
  | Suspicion _ -> 11
  | Leader_change _ -> 12
  | Ballot_open _ -> 13
  | Decided _ -> 14
  | Partition _ -> 15
  | Recover _ -> 16
  | Adversary_move _ -> 17
  | Relay_round _ -> 18
  | Accusation _ -> 19
  | Hop _ -> tag_hop
  | Link_drop _ -> tag_link_drop
  | Edge_fault _ -> 22
  | Rack_fault _ -> 23

let time = function
  | Sched { now; _ }
  | Fire { now }
  | Cancel { now }
  | Timer_fire { now }
  | Send { now; _ }
  | Deliver { now; _ }
  | Drop { now; _ }
  | Duplicate { now; _ }
  | Round_open { now; _ }
  | Round_close { now; _ }
  | Suspicion { now; _ }
  | Leader_change { now; _ }
  | Ballot_open { now; _ }
  | Decided { now; _ }
  | Partition { now; _ }
  | Recover { now; _ }
  | Adversary_move { now; _ }
  | Relay_round { now; _ }
  | Accusation { now; _ }
  | Hop { now; _ }
  | Link_drop { now; _ }
  | Edge_fault { now; _ }
  | Rack_fault { now; _ } -> now

(* One JSON object per event, written without a trailing newline. All field
   values are ints or static ASCII kind strings, so no escaping is needed. *)
let to_json buf ev =
  let open Buffer in
  let field b k v =
    add_string b ",\"";
    add_string b k;
    add_string b "\":";
    add_string b (string_of_int v)
  in
  add_string buf "{\"ev\":\"";
  add_string buf (name ev);
  add_string buf "\"";
  field buf "t" (time ev);
  (match ev with
  | Sched { at; _ } -> field buf "at" at
  | Fire _ | Cancel _ | Timer_fire _ -> ()
  | Send { seq; src; dst; kind; round; bytes; _ }
  | Drop { seq; src; dst; kind; round; bytes; _ } ->
      field buf "seq" seq;
      field buf "src" src;
      field buf "dst" dst;
      add_string buf ",\"kind\":\"";
      add_string buf kind;
      add_string buf "\"";
      field buf "rn" round;
      field buf "bytes" bytes
  | Deliver { sent_at; seq; src; dst; kind; round; bytes; _ } ->
      field buf "sent_at" sent_at;
      field buf "seq" seq;
      field buf "src" src;
      field buf "dst" dst;
      add_string buf ",\"kind\":\"";
      add_string buf kind;
      add_string buf "\"";
      field buf "rn" round;
      field buf "bytes" bytes
  | Duplicate { src; dst; seq; _ } ->
      field buf "seq" seq;
      field buf "src" src;
      field buf "dst" dst
  | Round_open { pid; rn; _ } ->
      field buf "pid" pid;
      field buf "rn" rn
  | Round_close { pid; rn; suspected; _ } ->
      field buf "pid" pid;
      field buf "rn" rn;
      field buf "suspected" suspected
  | Suspicion { pid; target; level; _ } ->
      field buf "pid" pid;
      field buf "target" target;
      field buf "level" level
  | Leader_change { pid; leader; _ } ->
      field buf "pid" pid;
      field buf "leader" leader
  | Ballot_open { pid; ballot; _ } | Decided { pid; ballot; _ } ->
      field buf "pid" pid;
      field buf "ballot" ballot
  | Partition { groups; _ } -> field buf "groups" groups
  | Recover { pid; _ } -> field buf "pid" pid
  | Adversary_move { target; _ } -> field buf "target" target
  | Relay_round { pid; rn; stale; _ } ->
      field buf "pid" pid;
      field buf "rn" rn;
      field buf "stale" stale
  | Accusation { pid; target; level; _ } ->
      field buf "pid" pid;
      field buf "target" target;
      field buf "level" level
  | Hop { seq; src; dst; via; kind; round; bytes; _ } ->
      field buf "seq" seq;
      field buf "src" src;
      field buf "dst" dst;
      field buf "via" via;
      add_string buf ",\"kind\":\"";
      add_string buf kind;
      add_string buf "\"";
      field buf "rn" round;
      field buf "bytes" bytes
  | Link_drop { seq; src; dst; hop_src; hop_dst; kind; round; bytes; _ } ->
      field buf "seq" seq;
      field buf "src" src;
      field buf "dst" dst;
      field buf "hop_src" hop_src;
      field buf "hop_dst" hop_dst;
      add_string buf ",\"kind\":\"";
      add_string buf kind;
      add_string buf "\"";
      field buf "rn" round;
      field buf "bytes" bytes
  | Edge_fault { a; b; state; _ } ->
      field buf "a" a;
      field buf "b" b;
      field buf "state" state
  | Rack_fault { rack; state; _ } ->
      field buf "rack" rack;
      field buf "state" state);
  add_string buf "}"
