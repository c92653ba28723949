(* Machine-speed calibration. The benchmark runs on shared machines whose
   speed drifts by tens of percent within seconds, most of all for code that
   allocates and chases pointers, as the simulator does. A fixed loop that
   uses nothing from the library — random updates of a 128k-entry stdlib
   Hashtbl holding freshly allocated tuples — is timed just before and just
   after each measured call, after a full major GC so that it never pays
   for the call's garbage; the call's wall time is then rescaled to the
   speed at which this loop takes [reference] seconds. A change to the
   library cannot move the loop, so it cannot move the scale. *)

let reference = 0.025

let table : (int, int * int) Hashtbl.t = Hashtbl.create 131_072

let once () =
  let t0 = Unix.gettimeofday () in
  let x = ref 7 in
  for _ = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 131_071 in
    match Hashtbl.find_opt table k with
    | Some (a, _) -> Hashtbl.replace table k (a + 1, !x)
    | None -> Hashtbl.replace table k (1, !x)
  done;
  Unix.gettimeofday () -. t0

(* Seconds the loop takes now: the median of three passes. *)
let loop_s () =
  Gc.full_major ();
  Probes.median (List.init 3 (fun _ -> once ()))

(* [around f] is [(f (), scale)]: multiplying a wall time measured inside
   [f] by [scale] gives it at the reference speed, the loop being timed on
   both sides of the call. *)
let around f =
  let before = loop_s () in
  let x = f () in
  let speed = (before +. loop_s ()) /. 2. in
  (x, reference /. speed)

(* Fill the table before the first measurement. *)
let () = ignore (once ())
