type pid = int

type 'm envelope = { first_seq : int; payloads : 'm list; ack : int }

(* Sender-side state of one directed link: the unacknowledged queue and the
   sequence number of its head. *)
type 'm outgoing = { mutable head_seq : int; queue : 'm Queue.t }

type 'm t = {
  net : 'm envelope Network.t;
  engine : Sim.Engine.t;
  rng : Dstruct.Rng.t;
  n : int;
  resend_every : Sim.Time.t;
  outgoing : 'm outgoing array;  (* indexed src*n + dst *)
  expected : int array;  (* receiver side: next in-order seq, per src*n+dst *)
  handlers : (src:pid -> 'm -> unit) option array;
  max_pending : int;
  mutable delivered : int;
  mutable shed : int;
}

let link t src dst = (src * t.n) + dst

let create ?(max_pending = 256) ?(topology = Topology.Complete) ?channels
    engine ~n ~oracle ~resend_every =
  if max_pending <= 0 then
    invalid_arg "Retransmit.create: max_pending must be positive";
  let spec =
    Network.Spec.default
    |> Network.Spec.with_oracle_us oracle
    |> Network.Spec.with_topology topology
  in
  let spec =
    match channels with
    | None -> spec
    | Some f -> Network.Spec.with_channels f spec
  in
  {
    net = Network.of_spec spec engine ~n;
    engine;
    rng = Dstruct.Rng.split (Sim.Engine.rng engine);
    n;
    resend_every;
    outgoing =
      Array.init (n * n) (fun _ -> { head_seq = 0; queue = Queue.create () });
    expected = Array.make (n * n) 0;
    handlers = Array.make n None;
    max_pending;
    delivered = 0;
    shed = 0;
  }

let is_crashed t p = Network.is_crashed t.net p
let crash t p = Network.crash t.net p

(* Put the whole unacknowledged queue of link [src -> dst] on the wire, with
   the cumulative ack for the reverse direction piggybacked. *)
let transmit t ~src ~dst =
  let out = t.outgoing.(link t src dst) in
  Network.send t.net ~src ~dst
    {
      first_seq = out.head_seq;
      payloads = List.of_seq (Queue.to_seq out.queue);
      ack = t.expected.(link t dst src);
    }

let pure_ack t ~src ~dst =
  let out = t.outgoing.(link t src dst) in
  if Queue.is_empty out.queue then
    Network.send t.net ~src ~dst
      {
        first_seq = out.head_seq;
        payloads = [];
        ack = t.expected.(link t dst src);
      }
  else transmit t ~src ~dst

let on_envelope t ~me ~src env =
  if not (is_crashed t me) then begin
    (* 1. The ack releases acknowledged payloads of the reverse link. *)
    let out = t.outgoing.(link t me src) in
    while out.head_seq < env.ack && not (Queue.is_empty out.queue) do
      ignore (Queue.pop out.queue);
      out.head_seq <- out.head_seq + 1
    done;
    (* 2. Deliver exactly the payloads we have not delivered yet, in order.
       The queue is contiguous, so anything beyond [expected] follows it. *)
    let l = link t src me in
    let had_news = ref false in
    List.iteri
      (fun i payload ->
        let seq = env.first_seq + i in
        if seq = t.expected.(l) then begin
          t.expected.(l) <- seq + 1;
          t.delivered <- t.delivered + 1;
          had_news := true;
          match t.handlers.(me) with
          | Some f -> f ~src payload
          | None -> ()
        end
        else if seq < t.expected.(l) then begin
          (* Retransmission overlap: this payload was already delivered. *)
          let sink = Sim.Engine.sink t.engine in
          if Obs.Sink.wants sink Obs.Event.c_net then
            Obs.Sink.emit sink
              (Obs.Event.Duplicate
                 {
                   now = Sim.Time.to_us (Sim.Engine.now t.engine);
                   src;
                   dst = me;
                   seq;
                 })
        end)
      env.payloads;
    (* 3. Acknowledge data envelopes (pure acks are never ack'd back, so
       there is no ack storm). *)
    if env.payloads <> [] then
      if !had_news then pure_ack t ~src:me ~dst:src
      else if Dstruct.Rng.chance t.rng 0.2 then
        (* Stale retransmission: our previous ack was probably lost; re-ack
           occasionally rather than on every duplicate. *)
        pure_ack t ~src:me ~dst:src
  end

let send t ~src ~dst m =
  if not (is_crashed t src) then begin
    let out = t.outgoing.(link t src dst) in
    (* Bound the unacknowledged queue: during a long partition the peer acks
       nothing, and every envelope carries the whole queue, so an unbounded
       queue means quadratic wire bytes and a retransmission storm at heal
       time. Shedding must refuse the NEWEST payload — the receiver's
       [expected] cursor only advances over a contiguous prefix, so dropping
       the oldest unacked payload would wedge the link forever. *)
    if Queue.length out.queue >= t.max_pending then t.shed <- t.shed + 1
    else begin
      Queue.push m out.queue;
      transmit t ~src ~dst
    end
  end

let set_handler t p f = t.handlers.(p) <- Some f

(* One record per process, allocated at [start] and re-posted with
   [Engine.call_after] forever after: the periodic resend loop costs no
   closures, only its event cells. *)
type 'm resend = { rt : 'm t; me : pid }

let rec resend_step ({ rt = t; me } as r) =
  if not (is_crashed t me) then begin
    for dst = 0 to t.n - 1 do
      if dst <> me && not (Queue.is_empty t.outgoing.(link t me dst).queue)
      then transmit t ~src:me ~dst
    done;
    let period_us = Sim.Time.to_us t.resend_every in
    let period = period_us + Dstruct.Rng.int t.rng (max 1 (period_us / 4)) in
    Sim.Engine.call_after t.engine (Sim.Time.of_us period) resend_step r
  end

let start t =
  for me = 0 to t.n - 1 do
    Network.set_handler t.net me (fun ~src env -> on_envelope t ~me ~src env);
    let offset = Dstruct.Rng.int t.rng (max 1 (Sim.Time.to_us t.resend_every)) in
    Sim.Engine.call_after t.engine (Sim.Time.of_us offset) resend_step
      { rt = t; me }
  done

let set_partition t groups = Network.set_partition t.net groups
let wire_sends t = Network.sent_count t.net
let delivered t = t.delivered
let shed t = t.shed

let backlog t =
  Array.fold_left (fun acc out -> acc + Queue.length out.queue) 0 t.outgoing
