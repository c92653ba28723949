(* [scalar] is the fast lane for the three per-message event kinds that
   dominate a traced run: a scalar-capable sink (the digest) consumes the
   fields directly and the producer never builds an [Event.t] record.
   Everything else — rare constructors, record-only sinks — still flows
   through [emit] with a full event value. *)

type scalar = {
  s_send :
    now:int -> seq:int -> src:int -> dst:int -> Event.msg_info -> unit;
  s_deliver :
    now:int ->
    sent_at:int ->
    seq:int ->
    src:int ->
    dst:int ->
    Event.msg_info ->
    unit;
  s_drop :
    now:int -> seq:int -> src:int -> dst:int -> Event.msg_info -> unit;
  s_hop :
    now:int ->
    seq:int ->
    src:int ->
    dst:int ->
    via:int ->
    Event.msg_info ->
    unit;
  s_link_drop :
    now:int ->
    seq:int ->
    src:int ->
    dst:int ->
    hop_src:int ->
    hop_dst:int ->
    Event.msg_info ->
    unit;
}

type t = { mask : int; emit : Event.t -> unit; scalar : scalar option }

let null = { mask = 0; emit = ignore; scalar = None }
let make ?scalar ~mask emit = { mask; emit; scalar }
let wants t c = t.mask land c <> 0
let emit t ev = t.emit ev
let mask t = t.mask
let is_null t = t.mask = 0

(* Producer helpers for the fast-lane kinds: call only under a
   [wants t Event.c_net] guard, like [emit]. The [None] branch builds the
   event exactly as the producer used to, so record sinks see an unchanged
   stream. *)

let emit_send t ~now ~seq ~src ~dst (info : Event.msg_info) =
  match t.scalar with
  | Some s -> s.s_send ~now ~seq ~src ~dst info
  | None ->
      t.emit
        (Event.Send
           {
             now;
             seq;
             src;
             dst;
             kind = info.kind;
             round = info.round;
             bytes = info.bytes;
           })

let emit_deliver t ~now ~sent_at ~seq ~src ~dst (info : Event.msg_info) =
  match t.scalar with
  | Some s -> s.s_deliver ~now ~sent_at ~seq ~src ~dst info
  | None ->
      t.emit
        (Event.Deliver
           {
             now;
             sent_at;
             seq;
             src;
             dst;
             kind = info.kind;
             round = info.round;
             bytes = info.bytes;
           })

let emit_drop t ~now ~seq ~src ~dst (info : Event.msg_info) =
  match t.scalar with
  | Some s -> s.s_drop ~now ~seq ~src ~dst info
  | None ->
      t.emit
        (Event.Drop
           {
             now;
             seq;
             src;
             dst;
             kind = info.kind;
             round = info.round;
             bytes = info.bytes;
           })

let emit_hop t ~now ~seq ~src ~dst ~via (info : Event.msg_info) =
  match t.scalar with
  | Some s -> s.s_hop ~now ~seq ~src ~dst ~via info
  | None ->
      t.emit
        (Event.Hop
           {
             now;
             seq;
             src;
             dst;
             via;
             kind = info.kind;
             round = info.round;
             bytes = info.bytes;
           })

let emit_link_drop t ~now ~seq ~src ~dst ~hop_src ~hop_dst
    (info : Event.msg_info) =
  match t.scalar with
  | Some s -> s.s_link_drop ~now ~seq ~src ~dst ~hop_src ~hop_dst info
  | None ->
      t.emit
        (Event.Link_drop
           {
             now;
             seq;
             src;
             dst;
             hop_src;
             hop_dst;
             kind = info.kind;
             round = info.round;
             bytes = info.bytes;
           })

(* The tee's fan-out loops are index loops over arrays bound outside the
   per-event closures: an [Array.iter (fun s -> ...)] over captured fields
   would allocate a closure for every event it forwards. *)
let tee sinks =
  match List.filter (fun s -> s.mask <> 0) sinks with
  | [] -> null
  | [ s ] -> s
  | sinks ->
      let arr = Array.of_list sinks in
      let mask = Array.fold_left (fun acc s -> acc lor s.mask) 0 arr in
      let emit ev =
        let c = Event.class_of ev in
        for i = 0 to Array.length arr - 1 do
          let s = arr.(i) in
          if s.mask land c <> 0 then s.emit ev
        done
      in
      (* The tee keeps the fast lane open iff some member can use it: scalar
         members get the fields, and one event record is built for all the
         record-only members together (they all want [c_net] by
         construction, so no per-member class check is needed). *)
      let net = List.filter (fun s -> s.mask land Event.c_net <> 0) sinks in
      let scalars = Array.of_list (List.filter_map (fun s -> s.scalar) net) in
      let recs =
        Array.of_list (List.filter (fun s -> Option.is_none s.scalar) net)
      in
      let emit_recs ev =
        for i = 0 to Array.length recs - 1 do
          recs.(i).emit ev
        done
      in
      let scalar =
        if Array.length scalars = 0 then None
        else
          Some
            {
              s_send =
                (fun ~now ~seq ~src ~dst info ->
                  for i = 0 to Array.length scalars - 1 do
                    scalars.(i).s_send ~now ~seq ~src ~dst info
                  done;
                  if Array.length recs > 0 then
                    emit_recs
                      (Event.Send
                         {
                           now;
                           seq;
                           src;
                           dst;
                           kind = info.Event.kind;
                           round = info.Event.round;
                           bytes = info.Event.bytes;
                         }));
              s_deliver =
                (fun ~now ~sent_at ~seq ~src ~dst info ->
                  for i = 0 to Array.length scalars - 1 do
                    scalars.(i).s_deliver ~now ~sent_at ~seq ~src ~dst info
                  done;
                  if Array.length recs > 0 then
                    emit_recs
                      (Event.Deliver
                         {
                           now;
                           sent_at;
                           seq;
                           src;
                           dst;
                           kind = info.Event.kind;
                           round = info.Event.round;
                           bytes = info.Event.bytes;
                         }));
              s_drop =
                (fun ~now ~seq ~src ~dst info ->
                  for i = 0 to Array.length scalars - 1 do
                    scalars.(i).s_drop ~now ~seq ~src ~dst info
                  done;
                  if Array.length recs > 0 then
                    emit_recs
                      (Event.Drop
                         {
                           now;
                           seq;
                           src;
                           dst;
                           kind = info.Event.kind;
                           round = info.Event.round;
                           bytes = info.Event.bytes;
                         }));
              s_hop =
                (fun ~now ~seq ~src ~dst ~via info ->
                  for i = 0 to Array.length scalars - 1 do
                    scalars.(i).s_hop ~now ~seq ~src ~dst ~via info
                  done;
                  if Array.length recs > 0 then
                    emit_recs
                      (Event.Hop
                         {
                           now;
                           seq;
                           src;
                           dst;
                           via;
                           kind = info.Event.kind;
                           round = info.Event.round;
                           bytes = info.Event.bytes;
                         }));
              s_link_drop =
                (fun ~now ~seq ~src ~dst ~hop_src ~hop_dst info ->
                  for i = 0 to Array.length scalars - 1 do
                    scalars.(i).s_link_drop ~now ~seq ~src ~dst ~hop_src
                      ~hop_dst info
                  done;
                  if Array.length recs > 0 then
                    emit_recs
                      (Event.Link_drop
                         {
                           now;
                           seq;
                           src;
                           dst;
                           hop_src;
                           hop_dst;
                           kind = info.Event.kind;
                           round = info.Event.round;
                           bytes = info.Event.bytes;
                         }));
            }
      in
      { mask; emit; scalar }
