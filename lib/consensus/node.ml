type pid = int

type phase = Idle | Preparing | Accepting

type 'v transport = {
  engine : Sim.Engine.t;
  n : int;
  send : dst:pid -> 'v Message.t -> unit;
  halted : unit -> bool;
}

let network_transport net ~me =
  {
    engine = Net.Network.engine net;
    n = Net.Network.n net;
    send = (fun ~dst msg -> Net.Network.send net ~src:me ~dst msg);
    halted = (fun () -> Net.Network.is_crashed net me);
  }

type 'v t = {
  tr : 'v transport;
  rng : Dstruct.Rng.t;
  me : pid;
  leader_oracle : unit -> pid;
  retry_every : Sim.Time.t;
  quorum : int;
  n : int;
  (* acceptor state *)
  mutable promised : int;
  mutable accepted : (int * 'v) option;
  (* proposer state *)
  mutable proposal : 'v option;
  mutable phase : phase;
  mutable ballot : int;  (* ballot being driven when phase <> Idle *)
  mutable attempt : int;  (* next attempt number *)
  promise_from : Dstruct.Bitset.t;
  accepted_from : Dstruct.Bitset.t;
  mutable best_promise : (int * 'v) option;  (* highest accepted among promises *)
  mutable accept_value : 'v option;
  mutable progressed : bool;  (* progress since the last retry check *)
  (* learner state *)
  mutable decided : 'v option;
  mutable decided_at : Sim.Time.t option;
  mutable ballots_started : int;
}

let halted t = t.tr.halted ()

let broadcast_all t msg =
  (* Including self: the proposer is also an acceptor, and routing the self
     copy through the transport keeps the protocol uniform. *)
  for dst = 0 to t.n - 1 do
    t.tr.send ~dst msg
  done

let clear_ballot_state t =
  Dstruct.Bitset.clear t.promise_from;
  Dstruct.Bitset.clear t.accepted_from;
  t.best_promise <- None;
  t.accept_value <- None

let emit_ballot_event t make =
  let sink = Sim.Engine.sink t.tr.engine in
  if Obs.Sink.wants sink Obs.Event.c_consensus then
    Obs.Sink.emit sink
      (make (Sim.Time.to_us (Sim.Engine.now t.tr.engine)))

let start_ballot t =
  if Option.is_none t.decided && Option.is_some t.proposal then begin
    t.ballot <- (t.attempt * t.n) + t.me;
    t.attempt <- t.attempt + 1;
    t.ballots_started <- t.ballots_started + 1;
    t.phase <- Preparing;
    clear_ballot_state t;
    emit_ballot_event t (fun now ->
        Obs.Event.Ballot_open { now; pid = t.me; ballot = t.ballot });
    broadcast_all t (Message.Prepare { ballot = t.ballot })
  end

let decide t v =
  if Option.is_none t.decided then begin
    t.decided <- Some v;
    t.decided_at <- Some (Sim.Engine.now t.tr.engine);
    t.phase <- Idle;
    emit_ballot_event t (fun now ->
        Obs.Event.Decided { now; pid = t.me; ballot = t.ballot });
    (* Relay exactly once: with [n - t] correct processes and reliable links,
       one relay per process floods the decision to every correct process
       even if the original proposer crashes mid-broadcast. *)
    broadcast_all t (Message.Decide { value = v })
  end

let on_prepare t ~src ballot =
  if ballot > t.promised then begin
    t.promised <- ballot;
    t.tr.send ~dst:src (Message.Promise { ballot; accepted = t.accepted })
  end
  else t.tr.send ~dst:src (Message.Nack { ballot; promised = t.promised })

let on_promise t ~src ballot accepted =
  if t.phase = Preparing && ballot = t.ballot then begin
    t.progressed <- true;
    Dstruct.Bitset.add t.promise_from src;
    (match accepted with
    | Some (b, _) -> (
        match t.best_promise with
        | Some (b', _) when b' >= b -> ()
        | Some _ | None -> t.best_promise <- accepted)
    | None -> ());
    if Dstruct.Bitset.cardinal t.promise_from >= t.quorum then begin
      (* The classic safety core: adopt the highest accepted value from the
         promise quorum, else this proposer's own initial value. *)
      let value =
        match t.best_promise with
        | Some (_, v) -> v
        | None -> Option.get t.proposal
      in
      t.phase <- Accepting;
      t.accept_value <- Some value;
      broadcast_all t (Message.Accept { ballot = t.ballot; value })
    end
  end

let on_accept t ~src ballot value =
  if ballot >= t.promised then begin
    t.promised <- ballot;
    t.accepted <- Some (ballot, value);
    t.tr.send ~dst:src (Message.Accepted { ballot; value })
  end
  else t.tr.send ~dst:src (Message.Nack { ballot; promised = t.promised })

let on_accepted t ~src ballot value =
  if t.phase = Accepting && ballot = t.ballot then begin
    t.progressed <- true;
    Dstruct.Bitset.add t.accepted_from src;
    if Dstruct.Bitset.cardinal t.accepted_from >= t.quorum then decide t value
  end

let on_nack t ballot promised =
  if t.phase <> Idle && ballot = t.ballot then begin
    t.phase <- Idle;
    (* Jump past the competing ballot so the next attempt can win. *)
    t.attempt <- max t.attempt ((promised / t.n) + 1)
  end

let on_decide t value =
  if Option.is_none t.decided then begin
    t.decided <- Some value;
    t.decided_at <- Some (Sim.Engine.now t.tr.engine);
    t.phase <- Idle;
    (* [ballot = -1]: the deciding ballot is unknown to a learner. *)
    emit_ballot_event t (fun now ->
        Obs.Event.Decided { now; pid = t.me; ballot = -1 });
    broadcast_all t (Message.Decide { value })
  end

let on_message t ~src msg =
  if not (halted t) then
    match msg with
    | Message.Prepare { ballot } -> on_prepare t ~src ballot
    | Message.Promise { ballot; accepted } -> on_promise t ~src ballot accepted
    | Message.Accept { ballot; value } -> on_accept t ~src ballot value
    | Message.Accepted { ballot; value } -> on_accepted t ~src ballot value
    | Message.Nack { ballot; promised } -> on_nack t ballot promised
    | Message.Decide { value } -> on_decide t value

(* Liveness driver: if the oracle elects me and the current ballot made no
   progress since the last check, claim a fresh one. Before Ω stabilizes
   several processes may duel; afterwards only the true leader retries. *)
let rec retry_task t =
  if not (halted t) then begin
    if
      Option.is_none t.decided
      && Option.is_some t.proposal
      && t.leader_oracle () = t.me
      && ((not t.progressed) || t.phase = Idle)
    then start_ballot t;
    t.progressed <- false;
    let period_us = Sim.Time.to_us t.retry_every in
    let period =
      period_us + Dstruct.Rng.int t.rng (max 1 (period_us / 2))
    in
    Sim.Engine.call_after t.tr.engine (Sim.Time.of_us period) retry_task t
  end

let create (tr : 'v transport) ~me ~rng ~leader_oracle ~retry_every
    ~crash_bound =
  let n = tr.n in
  if 2 * crash_bound >= n then
    invalid_arg "Consensus.Node.create: needs a majority of correct processes";
  let t =
    {
      tr;
      rng = Dstruct.Rng.split rng;
      me;
      leader_oracle;
      retry_every;
      quorum = n - crash_bound;
      n;
      promised = -1;
      accepted = None;
      proposal = None;
      phase = Idle;
      ballot = -1;
      attempt = 0;
      promise_from = Dstruct.Bitset.create n;
      accepted_from = Dstruct.Bitset.create n;
      best_promise = None;
      accept_value = None;
      progressed = false;
      decided = None;
      decided_at = None;
      ballots_started = 0;
    }
  in
  t

let handle t ~src msg = on_message t ~src msg

let start t =
  (* The retry chain is this process's code, created under its rank. *)
  Sim.Engine.set_rank t.tr.engine t.me;
  let offset = Dstruct.Rng.int t.rng (max 1 (Sim.Time.to_us t.retry_every)) in
  Sim.Engine.call_after t.tr.engine (Sim.Time.of_us offset) retry_task t

let propose t v = if Option.is_none t.proposal then t.proposal <- Some v

let decision t = t.decided
let decided_at t = t.decided_at
let ballots_started t = t.ballots_started
