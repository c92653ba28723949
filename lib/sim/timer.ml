type t = {
  engine : Engine.t;
  on_expire : unit -> unit;
  mutable handle : Engine.handle option;
  mutable expired : bool;
}

let create engine ~on_expire = { engine; on_expire; handle = None; expired = false }

let disarm t =
  match t.handle with
  | Some h ->
      Engine.cancel t.engine h;
      t.handle <- None
  | None -> ()

(* Static so that (re)arming a timer packs [(fire, t)] instead of building a
   fresh closure — timers re-arm once per receiving round per process. *)
let fire t =
  t.handle <- None;
  t.expired <- true;
  let sink = Engine.sink t.engine in
  if Obs.Sink.wants sink Obs.Event.c_timer then
    Obs.Sink.emit sink
      (Obs.Event.Timer_fire { now = Time.to_us (Engine.now t.engine) });
  t.on_expire ()

let set t duration =
  disarm t;
  t.expired <- false;
  t.handle <- Some (Engine.schedule_call_after t.engine duration fire t)

let cancel t = disarm t

let is_armed t = Option.is_some t.handle
let has_expired t = t.expired
