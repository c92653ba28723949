(* In-memory span recorder. A span is one timed call into a layer: its
   name, start, end and the span that was open when it began (its parent).
   Spans are kept in memory while recording is on and written out as JSON
   lines when the benchmark ends; with recording off [with_span] is a plain
   call, so the timed mode pays nothing for it. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  start : float;
  stop : float;
}

let recording = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let open_span = ref (-1)

let with_span name f =
  if not !recording then f ()
  else begin
    let id = !next_id and parent = !open_span in
    incr next_id;
    open_span := id;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        open_span := parent;
        recorded :=
          { id; parent; name; start; stop = Unix.gettimeofday () } :: !recorded)
      f
  end

(* Id of the next span to open: pass it as [~since] to {!durations} to
   restrict a query to spans opened from now on. *)
let mark () = !next_id

(* Durations in seconds of the spans called [name] opened at or after
   [since], oldest first. *)
let durations ?(since = 0) name =
  List.rev
    (List.filter_map
       (fun s ->
         if s.id >= since && String.equal s.name name then
           Some (s.stop -. s.start)
         else None)
       !recorded)

let write path =
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.start) infinity !recorded
  in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_s\": %.6f, \
         \"end_s\": %.6f}\n"
        s.id s.parent s.name (s.start -. origin) (s.stop -. origin))
    (List.sort (fun a b -> Int.compare a.id b.id) !recorded);
  close_out oc
