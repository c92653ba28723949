(* Fixed-shape probes of single layers, run only in the traced mode. Each
   probe drives one layer's public entry point in a tight loop shaped like
   the workload (its n, topology, regime, message mix, in-flight depth and
   delay spread) and returns the median cost per unit of work over a few
   repetitions. *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [per_unit ~reps f]: [f ()] does some work, timing only the part it
   wants measured, and returns [(units, seconds)]; the result is the median
   of seconds per unit over [reps] calls. *)
let per_unit ?(reps = 5) f =
  median
    (List.init reps (fun _ ->
         let units, secs = f () in
         secs /. float (max 1 units)))

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* {2 Sim.Engine} *)

(* Delays drawn from a log2 histogram (see {!Counting}), uniformly within
   each bucket: 4096 of them, replayed cyclically by the engine probe. *)
let delays_of_histogram ~seed hist =
  let total = Array.fold_left ( + ) 0 hist in
  let rs = Random.State.make [| seed |] in
  Array.init 4096 (fun _ ->
      if total = 0 then 1_000
      else begin
        let r = Random.State.full_int rs total in
        let rec pick b acc =
          if b >= Array.length hist - 1 || acc + hist.(b) > r then b
          else pick (b + 1) (acc + hist.(b))
        in
        let b = pick 0 0 in
        let lo = if b = 0 then 0 else 1 lsl b in
        lo + Random.State.full_int rs (max 1 lo)
      end)

type ticker = {
  engine : Sim.Engine.t;
  mutable left : int;
  delays : int array;
  mutable next : int;
}

(* Each firing event schedules its successor until [left] runs out, so the
   queue holds the initial depth throughout. *)
let rec tick st =
  if st.left > 0 then begin
    st.left <- st.left - 1;
    let d = st.delays.(st.next land 4095) in
    st.next <- st.next + 1;
    Sim.Engine.call_after st.engine (Sim.Time.of_us d) tick st
  end

(* ns per event of [call_after] + [run_until] at [depth] live events. *)
let engine_ns ~depth ~delays ~events =
  1e9
  *. per_unit (fun () ->
         let engine = Sim.Engine.create ~seed:1L () in
         let st = { engine; left = events; delays; next = 0 } in
         timed (fun () ->
             for i = 1 to depth do
               Sim.Engine.call_after engine
                 (Sim.Time.of_us delays.(i land 4095))
                 tick st
             done;
             ignore (Sim.Engine.run_until_idle engine);
             depth + events))

(* {2 Net.Network} *)

let constant_oracle ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ () = 1_000

let noop () = ()

(* ns per hop execution (on the direct path, per delivery) of [broadcast]
   from every process in turn, [rounds] times, with no-op handlers and a
   constant [oracle_us]. The engine's own share is subtracted: the same
   number of events scheduled with the same delay straight on an engine.
   [routed] selects the workload's topology and channel class (which forces
   the routed path even on the complete graph); otherwise the complete
   graph's direct dispatch. *)
let net_ns ~n ~routed ~rounds =
  let spec = Net.Spec.(default |> with_oracle_us constant_oracle) in
  let spec =
    match routed with
    | None -> spec
    | Some (kind, channel) ->
        Net.Spec.(
          spec |> with_topology kind
          |> with_channels (fun ~src:_ ~dst:_ -> channel))
  in
  let per_hop =
    per_unit (fun () ->
        let engine = Sim.Engine.create ~seed:1L () in
        let net = Net.Network.of_spec spec engine ~n in
        for i = 0 to n - 1 do
          Net.Network.set_handler net i (fun ~src:_ () -> ())
        done;
        let topo = Net.Network.topology net in
        let hops = ref 0 in
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            if src <> dst then hops := !hops + Net.Topology.dist topo ~src ~dst
          done
        done;
        let units, net_s =
          timed (fun () ->
              for _ = 1 to rounds do
                for src = 0 to n - 1 do
                  Net.Network.broadcast net ~src ()
                done;
                ignore (Sim.Engine.run_until_idle engine)
              done;
              rounds * !hops)
        in
        let bare = Sim.Engine.create ~seed:1L () in
        let per_round = units / rounds in
        let (), engine_s =
          timed (fun () ->
              for _ = 1 to rounds do
                for _ = 1 to per_round do
                  Sim.Engine.call_after bare (Sim.Time.of_us 1_000) noop ()
                done;
                ignore (Sim.Engine.run_until_idle bare)
              done)
        in
        (units, net_s -. engine_s))
  in
  1e9 *. per_hop

(* {2 Scenarios.Scenario} *)

(* One message of kind [kind] at round [rn], as the classifier names them. *)
let message ~n ~payload kind rn i : Omega.Message.t =
  match kind with
  | "alive" -> Alive { rn; susp_level = payload }
  | "susp" -> Suspicion { rn; suspects = [ i mod n ] }
  | "hb" -> Heartbeat { rn }
  | "agg" -> Aggregate { rn; levels = payload }
  | _ -> Accuse { rn; target = i mod n; level = 1 }

(* 4096 messages whose kinds follow [mix] (kind, share) in order. *)
let mixed_kinds mix =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 mix in
  Array.init 4096 (fun i ->
      let target = (float i +. 0.5) /. 4096. *. float (max 1 total) in
      let rec pick acc = function
        | [ (k, _) ] -> k
        | (k, c) :: rest ->
            if float (acc + c) > target then k else pick (acc + c) rest
        | [] -> "alive"
      in
      pick 0 mix)

(* ns per [Scenario.oracle_us] call on the environment's regime and the
   workload's message mix, sweeping rounds 1..64 at their send times. *)
let oracle_ns ~env ~mix ~calls =
  let params = Scenarios.Env.params env in
  let n = params.Scenarios.Scenario.n and beta = params.beta in
  let sc =
    Scenarios.Scenario.create params (Scenarios.Env.regime env)
      ~seed:(Scenarios.Env.scenario_seed env)
  in
  let oracle =
    Scenarios.Scenario.oracle_us sc
      ~round_of:Scenarios.Scenario.round_rn_of_omega
  in
  let payload = Array.make n 0 in
  let kinds = mixed_kinds mix in
  let rn i = 1 + (i * 64 / 4096) in
  let msgs = Array.mapi (fun i k -> message ~n ~payload k (rn i) i) kinds in
  let nows = Array.init 4096 (fun i -> Sim.Time.of_us (rn i * beta)) in
  let srcs = Array.init 4096 (fun i -> i mod n) in
  let dsts = Array.init 4096 (fun i -> ((i * 31) + 1 + (i mod n)) mod n) in
  let sink = ref 0 in
  1e9
  *. per_unit (fun () ->
         timed (fun () ->
             for c = 0 to calls - 1 do
               let i = c land 4095 in
               let src = srcs.(i) in
               sink :=
                 !sink
                 + oracle ~now:nows.(i) ~seq:c ~at:src ~src ~dst:dsts.(i)
                     msgs.(i)
             done;
             calls))

(* {2 Omega.Node} *)

let silent_node config =
  let engine = Sim.Engine.create ~seed:1L () in
  let transport =
    {
      Omega.Node.engine;
      n = config.Omega.Config.n;
      send = (fun ~dst:_ _ -> ());
      halted = (fun () -> false);
    }
  in
  Omega.Node.create_with_transport config transport ~me:0

(* ns per [Node.handle] on a node over a no-op transport. [`Merged]: ALIVE
   whose payload is never the array last merged from its sender;
   [`Skipped]: ALIVE whose payload is physically the sender's previous one;
   [`Suspicion]: SUSPICION naming one process. Rounds cycle over 1..8 so
   the node's round state stays bounded. *)
let node_ns ~config ~shape ~calls =
  let n = config.Omega.Config.n in
  let peers = n - 1 in
  let arrays = Array.init 2 (fun _ -> Array.init n (fun _ -> Array.make n 0)) in
  let msgs =
    Array.init (16 * peers) (fun j ->
        let src = 1 + (j mod peers) and cycle = j / peers in
        let rn = 1 + (cycle mod 8) in
        let m : Omega.Message.t =
          match shape with
          | `Merged -> Alive { rn; susp_level = arrays.(cycle land 1).(src) }
          | `Skipped -> Alive { rn; susp_level = arrays.(0).(src) }
          | `Suspicion -> Suspicion { rn; suspects = [ j * 7 mod n ] }
        in
        (src, m))
  in
  let node = silent_node config in
  let len = Array.length msgs in
  1e9
  *. per_unit (fun () ->
         timed (fun () ->
             for c = 0 to calls - 1 do
               let src, m = msgs.(c mod len) in
               Omega.Node.handle node ~src m
             done;
             calls))

(* {2 Parallel.Pool} *)

(* µs per trivial task of [Pool.run] on a 2-job pool. *)
let pool_task_us ~tasks =
  Parallel.Pool.with_pool ~jobs:2 (fun pool ->
      let thunks = Array.make tasks (fun () -> ()) in
      1e6
      *. per_unit (fun () ->
             timed (fun () ->
                 ignore (Parallel.Pool.run pool thunks);
                 tasks)))
