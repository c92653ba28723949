(* Static-function registry backing {!Engine.snapshot}. The engine's slot
   store keeps each event's function as a raw [Obj.t -> unit] (DESIGN.md
   §11); snapshots replace each one with its registered id before
   marshalling and swap the function back on restore, so a checkpoint
   never depends on a code pointer staying at the same address across
   processes. Ids are
   append-only, like event tags: an id is part of the on-disk checkpoint
   format, so it must never be reused or renumbered. Closures reachable
   through event *payloads* (timer [on_expire], delay oracles) still ride
   on [Marshal.Closures] and pin checkpoints to the producing binary; the
   registry keeps the hot packed lane position-independent and forces every
   static scheduling entry point to be declared here. *)

let capacity = 64
let fns : (Obj.t -> unit) option array = Array.make capacity None

let register : type a. id:int -> (a -> unit) -> unit =
 fun ~id fn ->
  if id < 0 || id >= capacity then
    invalid_arg (Printf.sprintf "Checkpoint.register: id %d out of range" id);
  (match fns.(id) with
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Checkpoint.register: id %d already registered" id)
  | None -> ());
  (* Same erasure as [Engine.enqueue]: [Obj.magic] is the identity on the
     runtime value, so the registered slot is physically equal to the
     function the engine's store holds. *)
  fns.(id) <- Some (Obj.magic fn)

(* Physical-equality scan. O(capacity), but it only runs at snapshot time,
   once per pending event — never on the scheduling hot path. *)
let id_of (f : Obj.t -> unit) =
  let rec scan i =
    if i >= capacity then -1
    else
      match fns.(i) with Some g when g == f -> i | _ -> scan (i + 1)
  in
  scan 0

let fn_of id =
  if id < 0 || id >= capacity then
    invalid_arg (Printf.sprintf "Checkpoint.fn_of: id %d out of range" id);
  match fns.(id) with
  | Some f -> f
  | None ->
      invalid_arg
        (Printf.sprintf
           "Checkpoint.fn_of: id %d not registered (checkpoint written by a \
            build with more registrations?)"
           id)
