type pid = int

type t =
  | Alive of { rn : int; susp_level : int array }
  | Suspicion of { rn : int; suspects : pid list }
  | Heartbeat of { rn : int }
  | Aggregate of { rn : int; levels : int array }
  | Accuse of { rn : int; target : pid; level : int }

let round = function
  | Alive { rn; _ }
  | Suspicion { rn; _ }
  | Heartbeat { rn }
  | Aggregate { rn; _ }
  | Accuse { rn; _ } -> rn

let is_alive = function
  | Alive _ -> true
  | Suspicion _ | Heartbeat _ | Aggregate _ | Accuse _ -> false

let wire_size = function
  | Alive { susp_level; _ } -> 1 + 4 + (4 * Array.length susp_level)
  | Suspicion { suspects; _ } -> 1 + 4 + 4 + (4 * List.length suspects)
  | Heartbeat _ -> 1 + 4
  | Aggregate { levels; _ } -> 1 + 4 + (4 * Array.length levels)
  | Accuse _ -> 1 + 4 + 4 + 4

(* Observability classifier for {!Net.Spec.with_classify}. [round] is only set
   for ALIVE, matching {!Scenarios.Scenario.round_rn_of_omega}: SUSPICION
   carries a round number but no assumption constrains its delivery, and the
   checker must not mistake it for an ALIVE arrival. The lean variant's
   messages all classify with [round = -1] for the same reason — the
   checker verifies Figure 3's per-round ALIVE arrival pattern and must
   never key on relay traffic. (The {e adversary} still sees their round
   tags: {!Scenarios.Scenario.round_rn_of_omega} is a separate
   projection.) *)
let info = function
  | Alive { rn; _ } as m -> { Obs.Event.kind = "alive"; round = rn; bytes = wire_size m }
  | Suspicion _ as m -> { Obs.Event.kind = "susp"; round = -1; bytes = wire_size m }
  | Heartbeat _ as m -> { Obs.Event.kind = "hb"; round = -1; bytes = wire_size m }
  | Aggregate _ as m -> { Obs.Event.kind = "agg"; round = -1; bytes = wire_size m }
  | Accuse _ as m -> { Obs.Event.kind = "accuse"; round = -1; bytes = wire_size m }

let pp ppf = function
  | Alive { rn; susp_level } ->
      Format.fprintf ppf "ALIVE(%d, [%a])" rn
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
           Format.pp_print_int)
        (Array.to_list susp_level)
  | Suspicion { rn; suspects } ->
      Format.fprintf ppf "SUSPICION(%d, {%a})" rn
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        suspects
  | Heartbeat { rn } -> Format.fprintf ppf "HEARTBEAT(%d)" rn
  | Aggregate { rn; levels } ->
      Format.fprintf ppf "AGGREGATE(%d, [%a])" rn
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
           Format.pp_print_int)
        (Array.to_list levels)
  | Accuse { rn; target; level } ->
      Format.fprintf ppf "ACCUSE(%d, target=%d, level=%d)" rn target level
