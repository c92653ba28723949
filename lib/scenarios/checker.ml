type pid = int

type violation = { rn : int; q : pid; detail : string }

type report = {
  rounds_checked : int;
  points_checked : int;
  points_timely : int;
  points_winning : int;
  points_crashed : int;
  points_skipped : int;
  rounds_masked : int;
  violations : violation list;
}

(* What [verify] reads of a run, per destination [q] and round [rn]: how
   many ALIVE(rn) [q] received, the 1-based position of the center's first
   one among them (0 = not received), and that message's transfer delay in
   µs. Per-destination int arrays indexed by round, grown on demand, so
   recording a delivery writes three ints and allocates nothing. Regimes
   without a center are never verified, so nothing is recorded for them. *)
type t = {
  scenario : Scenario.t;
  has_center : bool;
  count : int array array;
  center_pos : int array array;
  center_delay : int array array;
}

let create scenario =
  let n = (Scenario.params scenario).Scenario.n in
  {
    scenario;
    has_center = Option.is_some (Scenario.center scenario);
    count = Array.make n [||];
    center_pos = Array.make n [||];
    center_delay = Array.make n [||];
  }

let grow t q rn =
  let len = max 64 (max (rn + 1) (2 * Array.length t.count.(q))) in
  let extend a =
    let b = Array.make len 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.count.(q) <- extend t.count.(q);
  t.center_pos.(q) <- extend t.center_pos.(q);
  t.center_delay.(q) <- extend t.center_delay.(q)

(* The checker consumes [Deliver] events whose [round >= 0] — by the
   classifier contract (see {!Net.Spec.with_classify}) exactly the
   assumption-bearing messages, i.e. what [round_of] used to tag. Only the
   center's first arrival counts for position and delay; duplicates still
   count as arrivals. *)
let record t ~now ~sent_at ~src ~dst rn =
  if rn >= 0 && t.has_center && dst < Array.length t.count then begin
    if rn >= Array.length t.count.(dst) then grow t dst rn;
    let count = t.count.(dst) in
    let c = count.(rn) + 1 in
    count.(rn) <- c;
    let pos = t.center_pos.(dst) in
    if pos.(rn) = 0 && src = Scenario.center_pid t.scenario rn then begin
      pos.(rn) <- c;
      t.center_delay.(dst).(rn) <- now - sent_at
    end
  end

let on_event t = function
  | Obs.Event.Deliver { now; sent_at; src; dst; round; _ } ->
      record t ~now ~sent_at ~src ~dst round
  | _ -> ()

let ignore_msg ~now:_ ~seq:_ ~src:_ ~dst:_ (_ : Obs.Event.msg_info) = ()

(* The scalar lane: deliveries are recorded from their fields, so no event
   record is built for the checker, and the other per-message kinds cost
   one call to a no-op. *)
let sink t =
  let scalar =
    {
      Obs.Sink.s_send = ignore_msg;
      s_deliver =
        (fun ~now ~sent_at ~seq:_ ~src ~dst info ->
          record t ~now ~sent_at ~src ~dst info.Obs.Event.round);
      s_drop = ignore_msg;
      s_hop = (fun ~now:_ ~seq:_ ~src:_ ~dst:_ ~via:_ _ -> ());
      s_link_drop =
        (fun ~now:_ ~seq:_ ~src:_ ~dst:_ ~hop_src:_ ~hop_dst:_ _ -> ());
    }
  in
  Obs.Sink.make ~scalar ~mask:Obs.Event.c_net (on_event t)

(* Position (1-based) of the center's first ALIVE(rn) among the messages
   [q] received, and its transfer delay. *)
let center_arrival t ~q ~rn =
  let count = t.count.(q) in
  if rn >= Array.length count || count.(rn) = 0 then `No_arrivals
  else
    let pos = t.center_pos.(q).(rn) in
    if pos = 0 then `Missing count.(rn)
    else `Found (pos, Sim.Time.of_us t.center_delay.(q).(rn))

let verify ?(masked = fun _ -> false) ?(stretch = 1) t ~upto_round ~crashed =
  if stretch < 1 then invalid_arg "Checker.verify: stretch must be >= 1";
  let p = Scenario.params t.scenario in
  let winning_rank = p.Scenario.n - p.Scenario.t in
  let rounds_checked = ref 0 in
  let points_checked = ref 0 in
  let timely = ref 0 in
  let winning = ref 0 in
  let crashed_ok = ref 0 in
  let skipped = ref 0 in
  let masked_rounds = ref 0 in
  let violations = ref [] in
  (match Scenario.center t.scenario with
  | None -> ()
  | Some _ ->
      for rn = p.Scenario.rn0 to upto_round do
        (* Fault plans suspend the assumption: a round whose messages could
           be in flight during a partition or crash window is excused (the
           paper's assumptions are promises about eventually-good periods,
           and a partition is by construction not one). *)
        if masked rn then incr masked_rounds
        else if Scenario.in_s t.scenario rn then begin
          incr rounds_checked;
          List.iter
            (fun (q, _mode) ->
              incr points_checked;
              if crashed q then incr crashed_ok
              else begin
                (* [stretch] is the routed network's diameter: each hop is
                   its own timely draw, so a δ + g(s) promise per link
                   becomes hops * (δ + g(s)) end to end. *)
                let delta_bound =
                  Sim.Time.of_us
                    (stretch
                    * Sim.Time.to_us
                        (Sim.Time.add p.Scenario.delta
                           (Scenario.g_function t.scenario rn)))
                in
                match center_arrival t ~q ~rn with
                | `Found (pos, delay) ->
                    if Sim.Time.(delay <= delta_bound) then incr timely
                    else if pos <= winning_rank then incr winning
                    else
                      violations :=
                        {
                          rn;
                          q;
                          detail =
                            Format.asprintf
                              "neither timely (delay %a > %a) nor winning \
                               (rank %d > %d)"
                              Sim.Time.pp delay Sim.Time.pp delta_bound pos
                              winning_rank;
                        }
                        :: !violations
                | `No_arrivals -> incr skipped
                | `Missing received ->
                    (* The center's message has not arrived by the horizon.
                       If q has already received enough other ALIVEs, the
                       center can no longer be winning: violation. Otherwise
                       the round is still in flight: skip. *)
                    if received >= winning_rank then
                      violations :=
                        {
                          rn;
                          q;
                          detail =
                            Printf.sprintf
                              "center ALIVE not delivered, %d others already \
                               arrived"
                              received;
                        }
                        :: !violations
                    else incr skipped
              end)
            (Scenario.q_set t.scenario rn)
        end
      done);
  {
    rounds_checked = !rounds_checked;
    points_checked = !points_checked;
    points_timely = !timely;
    points_winning = !winning;
    points_crashed = !crashed_ok;
    points_skipped = !skipped;
    rounds_masked = !masked_rounds;
    violations = List.rev !violations;
  }
