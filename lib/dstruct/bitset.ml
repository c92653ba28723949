(* 32-bit words in a plain int array: [words.(i lsr 5)], bit [i land 31].
   The byte-per-bit [Bytes.t] rendering this replaces made every scan a
   byte-at-a-time loop; with word-wide occupancy tests a scan skips 32
   absent (or 32 present) ids per zero (or all-ones) word, which is what
   the O(live) round closure in [Omega.Node] leans on. 32-bit words rather
   than the native 63: the masks stay within the portable untagged range
   and match the timing wheel's occupancy bitmap idiom. *)

type t = { words : int array; capacity : int; mutable cardinal : int }

let word_bits = 32

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  {
    words = Array.make ((capacity + word_bits - 1) / word_bits) 0;
    capacity;
    cardinal = 0;
  }

let capacity t = t.capacity
let cardinal t = t.cardinal

let check t i ~op =
  if i < 0 || i >= t.capacity then
    invalid_arg
      (Printf.sprintf "Bitset.%s: %d out of range [0,%d)" op i t.capacity)

let mem t i =
  check t i ~op:"mem";
  t.words.(i lsr 5) land (1 lsl (i land 31)) <> 0

let add t i =
  check t i ~op:"add";
  let w = i lsr 5 in
  let mask = 1 lsl (i land 31) in
  if t.words.(w) land mask = 0 then begin
    t.words.(w) <- t.words.(w) lor mask;
    t.cardinal <- t.cardinal + 1
  end

let remove t i =
  check t i ~op:"remove";
  let w = i lsr 5 in
  let mask = 1 lsl (i land 31) in
  if t.words.(w) land mask <> 0 then begin
    t.words.(w) <- t.words.(w) land lnot mask;
    t.cardinal <- t.cardinal - 1
  end

let is_empty t = t.cardinal = 0

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.cardinal <- 0

let copy t =
  { words = Array.copy t.words; capacity = t.capacity; cardinal = t.cardinal }

(* De Bruijn count-trailing-zeros over a 32-bit word (same table as the
   engine wheel's occupancy scans in [Sim.Engine]). *)
let debruijn_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz32 bits =
  debruijn_table.(((bits land -bits) * 0x077CB531 land 0xFFFFFFFF) lsr 27)

(* Drain the set bits of one word in ascending order; top-level recursion,
   not a nested [let rec], so no closure is allocated per call (no
   flambda). *)
let rec iter_word f base bits =
  if bits <> 0 then begin
    f (base + ctz32 bits);
    iter_word f base (bits land (bits - 1))
  end

let iter_set t f =
  let words = t.words in
  for w = 0 to Array.length words - 1 do
    iter_word f (w lsl 5) words.(w)
  done

(* [iter] predates [iter_set] (argument order follows [List.iter]); both
   now take the word-skipping path. *)
let iter f t = iter_set t f

let rec fold_word f base bits acc =
  if bits = 0 then acc
  else fold_word f base (bits land (bits - 1)) (f acc (base + ctz32 bits))

let fold_set t ~init ~f =
  let words = t.words in
  let acc = ref init in
  for w = 0 to Array.length words - 1 do
    let bits = words.(w) in
    if bits <> 0 then acc := fold_word f (w lsl 5) bits !acc
  done;
  !acc

let first_set t =
  let words = t.words in
  let len = Array.length words in
  let rec scan w =
    if w >= len then -1
    else if words.(w) <> 0 then (w lsl 5) + ctz32 words.(w)
    else scan (w + 1)
  in
  scan 0

(* The unset-bit mirror: flip the word, mask off the tail bits beyond
   [capacity], then drain as usual. An all-ones word (every id present)
   skips 32 ids in one test — the live-sender case the round closure
   cares about. *)
let unset_word t w =
  let bits = lnot t.words.(w) land 0xFFFFFFFF in
  let base = w lsl 5 in
  let over = base + word_bits - t.capacity in
  if over > 0 then bits land (0xFFFFFFFF lsr over) else bits

let iter_unset t f =
  let len = Array.length t.words in
  for w = 0 to len - 1 do
    iter_word f (w lsl 5) (unset_word t w)
  done

let fold_unset t ~init ~f =
  let len = Array.length t.words in
  let acc = ref init in
  for w = 0 to len - 1 do
    let bits = unset_word t w in
    if bits <> 0 then acc := fold_word f (w lsl 5) bits !acc
  done;
  !acc

(* Descending mirror, for building an ascending cons-list of the absent
   ids in one pass (the suspects of a SUSPICION broadcast). Zero unset
   words — 32 present ids — still cost one test; only words that actually
   hold absent ids pay the per-bit walk. *)
let fold_unset_down t ~init ~f =
  let acc = ref init in
  for w = Array.length t.words - 1 downto 0 do
    let bits = unset_word t w in
    if bits <> 0 then begin
      let base = w lsl 5 in
      for b = word_bits - 1 downto 0 do
        if bits land (1 lsl b) <> 0 then acc := f !acc (base + b)
      done
    end
  done;
  !acc

let complement t =
  let c = create t.capacity in
  let len = Array.length t.words in
  let card = ref 0 in
  for w = 0 to len - 1 do
    let bits = unset_word t w in
    c.words.(w) <- bits;
    (* popcount via drain; complements are off the hot path. *)
    let b = ref bits in
    while !b <> 0 do
      incr card;
      b := !b land (!b - 1)
    done
  done;
  c.cardinal <- !card;
  c

let to_list t =
  fold_set t ~init:[] ~f:(fun acc i -> i :: acc) |> List.rev

let of_list ~capacity members =
  let t = create capacity in
  List.iter (add t) members;
  t

let equal a b =
  a.capacity = b.capacity && a.cardinal = b.cardinal
  && a.words = b.words

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (to_list t)
