(* Unit and property tests for the dstruct substrate. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

(* ---------------------------------------------------------------- Rng *)

let test_rng_deterministic () =
  let a = Dstruct.Rng.create 42L and b = Dstruct.Rng.create 42L in
  for _ = 1 to 100 do
    check bool_t "same stream" true (Dstruct.Rng.bits64 a = Dstruct.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Dstruct.Rng.create 1L and b = Dstruct.Rng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Dstruct.Rng.bits64 a = Dstruct.Rng.bits64 b then incr same
  done;
  check bool_t "different seeds diverge" true (!same < 4)

let test_rng_split_independent () =
  let root = Dstruct.Rng.create 7L in
  let a = Dstruct.Rng.split root in
  let b = Dstruct.Rng.split root in
  (* Draws from a must not affect b. *)
  let b_copy = Dstruct.Rng.copy b in
  for _ = 1 to 10 do
    ignore (Dstruct.Rng.bits64 a)
  done;
  for _ = 1 to 10 do
    check bool_t "b unaffected by a" true
      (Dstruct.Rng.bits64 b = Dstruct.Rng.bits64 b_copy)
  done

let test_rng_bad_args () =
  let rng = Dstruct.Rng.create 1L in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Dstruct.Rng.int rng 0));
  Alcotest.check_raises "int_in inverted" (Invalid_argument "Rng.int_in: lo > hi")
    (fun () -> ignore (Dstruct.Rng.int_in rng 3 2));
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Dstruct.Rng.pick rng []))

let prop_rng_int_range =
  QCheck.Test.make ~name:"rng int stays in range" ~count:500
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let rng = Dstruct.Rng.create (Int64.of_int seed) in
      let v = Dstruct.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"rng int_in stays inclusive" ~count:500
    QCheck.(triple small_int (int_bound 100) (int_bound 100))
    (fun (seed, a, b) ->
      let lo = min a b and hi = max a b in
      let rng = Dstruct.Rng.create (Int64.of_int seed) in
      let v = Dstruct.Rng.int_in rng lo hi in
      v >= lo && v <= hi)

let prop_rng_sample =
  QCheck.Test.make ~name:"rng sample is a k-subset" ~count:300
    QCheck.(pair small_int (list_of_size Gen.(1 -- 20) small_int))
    (fun (seed, xs) ->
      let xs = List.mapi (fun i x -> (i, x)) xs in
      let rng = Dstruct.Rng.create (Int64.of_int seed) in
      let k = Dstruct.Rng.int rng (List.length xs + 1) in
      let s = Dstruct.Rng.sample rng k xs in
      List.length s = k
      && List.for_all (fun x -> List.mem x xs) s
      && List.length (List.sort_uniq compare s) = k)

let prop_rng_shuffle_permutes =
  QCheck.Test.make ~name:"rng shuffle is a permutation" ~count:300
    QCheck.(pair small_int (list int))
    (fun (seed, xs) ->
      let rng = Dstruct.Rng.create (Int64.of_int seed) in
      List.sort compare (Dstruct.Rng.shuffle rng xs) = List.sort compare xs)

let test_rng_chance_extremes () =
  let rng = Dstruct.Rng.create 3L in
  for _ = 1 to 20 do
    check bool_t "p=0 never" false (Dstruct.Rng.chance rng 0.);
    check bool_t "p=1 always" true (Dstruct.Rng.chance rng 1.)
  done

let test_rng_exponential_positive () =
  let rng = Dstruct.Rng.create 3L in
  for _ = 1 to 100 do
    check bool_t "exp >= 0" true (Dstruct.Rng.exponential rng ~mean:5. >= 0.)
  done

(* ------------------------------------------------------------- Rounds *)

let test_rounds_basic () =
  let r = Dstruct.Rounds.create () in
  check int_t "floor 0" 0 (Dstruct.Rounds.floor r);
  check (Alcotest.option int_t) "absent" None (Dstruct.Rounds.find r 5);
  let v = Dstruct.Rounds.find_or_add r 5 ~default:(fun () -> 42) in
  check int_t "default" 42 v;
  check (Alcotest.option int_t) "present" (Some 42) (Dstruct.Rounds.find r 5);
  Dstruct.Rounds.set r 5 7;
  check (Alcotest.option int_t) "set" (Some 7) (Dstruct.Rounds.find r 5);
  check int_t "cardinal" 1 (Dstruct.Rounds.cardinal r);
  check (Alcotest.option int_t) "max_round" (Some 5)
    (Dstruct.Rounds.max_round r)

let test_rounds_prune () =
  let r = Dstruct.Rounds.create () in
  for rn = 1 to 10 do
    Dstruct.Rounds.set r rn rn
  done;
  Dstruct.Rounds.prune_below ~recycle:ignore r 6;
  check int_t "floor raised" 6 (Dstruct.Rounds.floor r);
  check int_t "pruned" 5 (Dstruct.Rounds.cardinal r);
  check (Alcotest.option int_t) "below floor reads None" None
    (Dstruct.Rounds.find r 3);
  check (Alcotest.option int_t) "above floor kept" (Some 8)
    (Dstruct.Rounds.find r 8);
  (* Prune never lowers the floor. *)
  Dstruct.Rounds.prune_below ~recycle:ignore r 2;
  check int_t "floor monotone" 6 (Dstruct.Rounds.floor r)

let test_rounds_no_resurrection () =
  let r = Dstruct.Rounds.create () in
  Dstruct.Rounds.set r 4 1;
  Dstruct.Rounds.prune_below ~recycle:ignore r 5;
  Alcotest.check_raises "find_or_add below floor"
    (Invalid_argument "Rounds.find_or_add: round 4 below floor 5") (fun () ->
      ignore (Dstruct.Rounds.find_or_add r 4 ~default:(fun () -> 0)));
  Alcotest.check_raises "set below floor"
    (Invalid_argument "Rounds.set: round 4 below floor 5") (fun () ->
      Dstruct.Rounds.set r 4 0);
  Alcotest.check_raises "remove below floor"
    (Invalid_argument "Rounds.remove: round 4 below floor 5") (fun () ->
      Dstruct.Rounds.remove ~recycle:ignore r 4)

(* [Omega.Node]'s freelists reuse cells in the order [prune_below] hands
   them back, so that order is part of the run's behaviour: ascending
   rounds, across a ring wrap-around and around holes. *)
let test_rounds_recycle_order () =
  let r = Dstruct.Rounds.create () in
  List.iter
    (fun rn -> Dstruct.Rounds.set r rn rn)
    [ 30; 12; 41; 17; 25; 13; 38; 20; 33; 14; 29 ];
  Dstruct.Rounds.remove ~recycle:ignore r 17;
  Dstruct.Rounds.remove ~recycle:ignore r 33;
  let seen = ref [] in
  Dstruct.Rounds.prune_below r 39 ~recycle:(fun v -> seen := v :: !seen);
  check (Alcotest.list int_t) "ascending" [ 12; 13; 14; 20; 25; 29; 30; 38 ]
    (List.rev !seen);
  check int_t "kept" 1 (Dstruct.Rounds.cardinal r);
  check (Alcotest.option int_t) "max_round" (Some 41)
    (Dstruct.Rounds.max_round r)

type rounds_op =
  | Set of int * int
  | Find_or_add of int * int
  | Remove of int
  | Prune of int

(* Keys are offsets from the current floor: mostly a small window (where
   slots wrap and holes open), sometimes a jump of up to 10^5 rounds that
   makes the ring double several times at once, and a few below the floor
   to exercise the refusals. *)
let rounds_op_gen =
  let open QCheck.Gen in
  let offset =
    frequency [ (5, int_range (-2) 40); (1, int_bound 100_000) ]
  in
  frequency
    [
      (3, map2 (fun k v -> Set (k, v)) offset (int_bound 1000));
      (3, map2 (fun k v -> Find_or_add (k, v)) offset (int_bound 1000));
      (2, map (fun k -> Remove k) offset);
      (1, map (fun k -> Prune k) (oneof [ int_range (-2) 20; offset ]));
    ]

let rounds_op_print = function
  | Set (k, v) -> Printf.sprintf "Set(+%d, %d)" k v
  | Find_or_add (k, v) -> Printf.sprintf "Find_or_add(+%d, %d)" k v
  | Remove k -> Printf.sprintf "Remove(+%d)" k
  | Prune k -> Printf.sprintf "Prune(+%d)" k

let prop_rounds_model =
  (* Model check against a Map: every operation, then every key of
     [[floor - 2, max + 2]] — absent ones included, so a round aliased onto
     another's slot shows — plus [cardinal], [max_round] and [floor]. *)
  QCheck.Test.make ~name:"rounds matches map model" ~count:100
    (QCheck.make
       ~print:QCheck.Print.(list rounds_op_print)
       QCheck.Gen.(list_size (1 -- 30) rounds_op_gen))
    (fun ops ->
      let module M = Map.Make (Int) in
      let r = Dstruct.Rounds.create () in
      let model = ref M.empty and floor = ref 0 in
      let refused rn f =
        match f () with
        | () -> false
        | exception Invalid_argument _ -> rn < !floor
      in
      let step op =
        let key k = !floor + k in
        match op with
        | Set (k, v) ->
            let rn = key k in
            if rn < !floor then
              refused rn (fun () -> Dstruct.Rounds.set r rn v)
            else begin
              Dstruct.Rounds.set r rn v;
              model := M.add rn v !model;
              true
            end
        | Find_or_add (k, v) ->
            let rn = key k in
            if rn < !floor then
              refused rn (fun () ->
                  ignore
                    (Dstruct.Rounds.find_or_add r rn ~default:(fun () -> v)))
            else begin
              let expected =
                match M.find_opt rn !model with Some old -> old | None -> v
              in
              model := M.add rn expected !model;
              Dstruct.Rounds.find_or_add r rn ~default:(fun () -> v) = expected
            end
        | Remove k ->
            let rn = key k in
            if rn < !floor then
              refused rn (fun () ->
                  Dstruct.Rounds.remove ~recycle:ignore r rn)
            else begin
              let got = ref None in
              Dstruct.Rounds.remove r rn ~recycle:(fun v -> got := Some v);
              let expected = M.find_opt rn !model in
              model := M.remove rn !model;
              !got = expected
            end
        | Prune k ->
            let bound = key k in
            let got = ref [] in
            Dstruct.Rounds.prune_below r bound ~recycle:(fun v ->
                got := v :: !got);
            let dropped = M.filter (fun rn _ -> rn < bound) !model in
            model := M.filter (fun rn _ -> rn >= bound) !model;
            if bound > !floor then floor := bound;
            List.rev !got = List.map snd (M.bindings dropped)
      in
      (* Walk [[floor - 2, max + 2]] against the model's sorted bindings. *)
      let agrees () =
        let top =
          match M.max_binding_opt !model with Some (k, _) -> k | None -> !floor
        in
        let rest = ref (M.bindings !model) and ok = ref true in
        for rn = !floor - 2 to top + 2 do
          match (!rest, Dstruct.Rounds.find_exn r rn) with
          | (k, v) :: tl, got when k = rn ->
              rest := tl;
              if got <> v then ok := false
          | _, _ -> ok := false
          | exception Not_found -> (
              match !rest with
              | (k, _) :: tl when k = rn ->
                  rest := tl;
                  ok := false
              | _ -> ())
        done;
        !ok
        && Dstruct.Rounds.cardinal r = M.cardinal !model
        && Dstruct.Rounds.max_round r
           = Option.map fst (M.max_binding_opt !model)
        && Dstruct.Rounds.floor r = !floor
      in
      List.for_all (fun op -> step op && agrees ()) ops)

(* The per-message lookups of Figures 1-3 must stay allocation-free: a warm
   ring slid one round at a time, with [find_or_add] at the head, a window
   of [find_exn] behind it and [prune_below] at the tail, allocates nothing
   per round. *)
let rounds_default () = 1

let test_rounds_alloc () =
  let r = Dstruct.Rounds.create () and window = 24 in
  let recycled = ref 0 in
  let recycle (_ : int) = incr recycled in
  let acc = ref 0 in
  let slide first last =
    for rn = first to last do
      acc := !acc + Dstruct.Rounds.find_or_add r rn ~default:rounds_default;
      for x = rn - window + 1 to rn - 1 do
        if x >= 1 then acc := !acc + Dstruct.Rounds.find_exn r x
      done;
      Dstruct.Rounds.prune_below ~recycle r (rn - window + 1)
    done
  in
  slide 1 1_000;
  let before = Gc.minor_words () in
  slide 1_001 101_000;
  let words = int_of_float (Gc.minor_words () -. before) in
  ignore !acc;
  check int_t "recycled one round per round" (101_000 - window) !recycled;
  check bool_t
    (Printf.sprintf "100k sliding rounds allocated %d minor words (budget 1000)"
       words)
    true (words < 1_000)

(* [Omega.Node] keeps its freelist pushers in mutable record fields and
   passes them on every prune and every collapsed round. That call shape —
   [~recycle] read from a mutable closure field — must allocate nothing
   per call: an optional argument would box the field in a fresh [Some]
   each time. 100k rounds, each with one [remove] and one [prune_below]
   that both hand a value back. *)
type freelist = { mutable give_back : int -> unit }

let test_rounds_recycle_field_alloc () =
  let returned = ref 0 in
  let h = { give_back = ignore } in
  h.give_back <- (fun _ -> incr returned);
  let r = Dstruct.Rounds.create () in
  let slide first last =
    for rn = first to last do
      Dstruct.Rounds.set r (2 * rn) rn;
      Dstruct.Rounds.set r ((2 * rn) + 1) rn;
      Dstruct.Rounds.remove ~recycle:h.give_back r (2 * rn);
      Dstruct.Rounds.prune_below ~recycle:h.give_back r ((2 * rn) + 2)
    done
  in
  slide 0 999;
  let before = Gc.minor_words () in
  slide 1_000 100_999;
  let words = int_of_float (Gc.minor_words () -. before) in
  check int_t "every round handed back" (2 * 101_000) !returned;
  check bool_t
    (Printf.sprintf
       "100k remove + prune_below calls allocated %d minor words (budget 1000)"
       words)
    true (words < 1_000)

(* ------------------------------------------------------------- Bitset *)

let test_bitset_basic () =
  let s = Dstruct.Bitset.create 10 in
  check int_t "empty cardinal" 0 (Dstruct.Bitset.cardinal s);
  Dstruct.Bitset.add s 3;
  Dstruct.Bitset.add s 7;
  Dstruct.Bitset.add s 3;
  check int_t "cardinal dedups" 2 (Dstruct.Bitset.cardinal s);
  check bool_t "mem 3" true (Dstruct.Bitset.mem s 3);
  check bool_t "not mem 4" false (Dstruct.Bitset.mem s 4);
  Dstruct.Bitset.remove s 3;
  check bool_t "removed" false (Dstruct.Bitset.mem s 3);
  Dstruct.Bitset.remove s 3;
  check int_t "remove idempotent" 1 (Dstruct.Bitset.cardinal s);
  check (Alcotest.list int_t) "to_list" [ 7 ] (Dstruct.Bitset.to_list s)

let test_bitset_complement () =
  let s = Dstruct.Bitset.of_list ~capacity:5 [ 0; 2; 4 ] in
  check (Alcotest.list int_t) "complement" [ 1; 3 ]
    (Dstruct.Bitset.to_list (Dstruct.Bitset.complement s))

let test_bitset_bounds () =
  let s = Dstruct.Bitset.create 4 in
  Alcotest.check_raises "add out of range"
    (Invalid_argument "Bitset.add: 4 out of range [0,4)") (fun () ->
      Dstruct.Bitset.add s 4);
  Alcotest.check_raises "mem negative"
    (Invalid_argument "Bitset.mem: -1 out of range [0,4)") (fun () ->
      ignore (Dstruct.Bitset.mem s (-1)))

let test_bitset_copy_clear () =
  let s = Dstruct.Bitset.of_list ~capacity:8 [ 1; 5 ] in
  let c = Dstruct.Bitset.copy s in
  Dstruct.Bitset.add s 2;
  check bool_t "copy isolated" false (Dstruct.Bitset.mem c 2);
  check bool_t "equal self" true (Dstruct.Bitset.equal c c);
  check bool_t "not equal after change" false (Dstruct.Bitset.equal s c);
  Dstruct.Bitset.clear s;
  check int_t "clear" 0 (Dstruct.Bitset.cardinal s);
  check bool_t "clear removes" false (Dstruct.Bitset.mem s 1)

let test_bitset_scans () =
  (* Members straddling word boundaries: ids in three different 32-bit
     words, including both edges of a word. *)
  let members = [ 0; 1; 31; 32; 63; 64; 70 ] in
  let s = Dstruct.Bitset.of_list ~capacity:71 members in
  let seen = ref [] in
  Dstruct.Bitset.iter_set s (fun i -> seen := i :: !seen);
  check (Alcotest.list int_t) "iter_set ascending" members (List.rev !seen);
  check (Alcotest.list int_t) "fold_set ascending" members
    (List.rev (Dstruct.Bitset.fold_set s ~init:[] ~f:(fun acc i -> i :: acc)));
  check int_t "first_set" 0 (Dstruct.Bitset.first_set s);
  Dstruct.Bitset.remove s 0;
  Dstruct.Bitset.remove s 1;
  Dstruct.Bitset.remove s 31;
  check int_t "first_set skips empty word" 32 (Dstruct.Bitset.first_set s);
  check int_t "first_set empty" (-1)
    (Dstruct.Bitset.first_set (Dstruct.Bitset.create 40))

let test_bitset_unset_scans () =
  let capacity = 67 in
  let members = [ 2; 31; 32; 64; 66 ] in
  let s = Dstruct.Bitset.of_list ~capacity members in
  let expected =
    List.filter (fun i -> not (List.mem i members)) (List.init capacity Fun.id)
  in
  let seen = ref [] in
  Dstruct.Bitset.iter_unset s (fun i -> seen := i :: !seen);
  check (Alcotest.list int_t) "iter_unset ascending" expected (List.rev !seen);
  check (Alcotest.list int_t) "fold_unset ascending" expected
    (List.rev (Dstruct.Bitset.fold_unset s ~init:[] ~f:(fun acc i -> i :: acc)));
  (* The tail bits beyond capacity must never leak in: a full set has no
     unset ids even when capacity is not a multiple of 32. *)
  let full = Dstruct.Bitset.of_list ~capacity:33 (List.init 33 Fun.id) in
  Dstruct.Bitset.iter_unset full (fun i ->
      Alcotest.failf "iter_unset leaked %d on a full set" i);
  check (Alcotest.list int_t) "complement of full is empty" []
    (Dstruct.Bitset.to_list (Dstruct.Bitset.complement full))

let prop_bitset_scan_model =
  QCheck.Test.make ~name:"bitset scans match to_list" ~count:300
    QCheck.(list (int_bound 49))
    (fun ids ->
      let b = Dstruct.Bitset.of_list ~capacity:50 ids in
      let set_scan =
        List.rev (Dstruct.Bitset.fold_set b ~init:[] ~f:(fun acc i -> i :: acc))
      in
      let unset_scan =
        List.rev
          (Dstruct.Bitset.fold_unset b ~init:[] ~f:(fun acc i -> i :: acc))
      in
      let members = Dstruct.Bitset.to_list b in
      set_scan = members
      && unset_scan
         = List.filter (fun i -> not (List.mem i members)) (List.init 50 Fun.id)
      && Dstruct.Bitset.first_set b
         = (match members with [] -> -1 | hd :: _ -> hd))

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset matches Set model" ~count:300
    QCheck.(list (pair bool (int_bound 31)))
    (fun ops ->
      let module S = Set.Make (Int) in
      let b = Dstruct.Bitset.create 32 in
      let model =
        List.fold_left
          (fun model (add, i) ->
            if add then begin
              Dstruct.Bitset.add b i;
              S.add i model
            end
            else begin
              Dstruct.Bitset.remove b i;
              S.remove i model
            end)
          S.empty ops
      in
      Dstruct.Bitset.to_list b = S.elements model
      && Dstruct.Bitset.cardinal b = S.cardinal model)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "dstruct"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independent;
          Alcotest.test_case "bad args" `Quick test_rng_bad_args;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "exponential positive" `Quick
            test_rng_exponential_positive;
          qtest prop_rng_int_range;
          qtest prop_rng_int_in_range;
          qtest prop_rng_sample;
          qtest prop_rng_shuffle_permutes;
        ] );
      ( "rounds",
        [
          Alcotest.test_case "basic" `Quick test_rounds_basic;
          Alcotest.test_case "prune" `Quick test_rounds_prune;
          Alcotest.test_case "no resurrection" `Quick test_rounds_no_resurrection;
          Alcotest.test_case "recycle order" `Quick test_rounds_recycle_order;
          Alcotest.test_case "sliding window allocates nothing" `Quick
            test_rounds_alloc;
          Alcotest.test_case "field recycle allocates nothing" `Quick
            test_rounds_recycle_field_alloc;
          qtest prop_rounds_model;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "complement" `Quick test_bitset_complement;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "copy/clear" `Quick test_bitset_copy_clear;
          Alcotest.test_case "set scans" `Quick test_bitset_scans;
          Alcotest.test_case "unset scans" `Quick test_bitset_unset_scans;
          qtest prop_bitset_scan_model;
          qtest prop_bitset_model;
        ] );
    ]
