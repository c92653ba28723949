type t = int

let zero = 0
let of_us us = us
let of_ms ms = ms * 1_000
let of_sec s = s * 1_000_000
let to_us t = t
let to_ms_float t = float_of_int t /. 1_000.
let add = ( + )
let sub = ( - )
let compare = Int.compare

(* Annotated at [int]: bound to the polymorphic [Stdlib] primitives these
   compiled to [caml_lessthan] & co. through [caml_c_call]. *)
let ( <= ) (a : int) b = a <= b
let ( < ) (a : int) b = a < b
let ( >= ) (a : int) b = a >= b
let ( > ) (a : int) b = a > b
let max (a : int) b = if a >= b then a else b
let min (a : int) b = if a <= b then a else b

let pp ppf t =
  if t mod 1_000_000 = 0 then Format.fprintf ppf "%ds" (t / 1_000_000)
  else if t mod 1_000 = 0 then Format.fprintf ppf "%dms" (t / 1_000)
  else Format.fprintf ppf "%dus" t
