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
  Dstruct.Rounds.prune_below r 6;
  check int_t "floor raised" 6 (Dstruct.Rounds.floor r);
  check int_t "pruned" 5 (Dstruct.Rounds.cardinal r);
  check (Alcotest.option int_t) "below floor reads None" None
    (Dstruct.Rounds.find r 3);
  check (Alcotest.option int_t) "above floor kept" (Some 8)
    (Dstruct.Rounds.find r 8);
  (* Prune never lowers the floor. *)
  Dstruct.Rounds.prune_below r 2;
  check int_t "floor monotone" 6 (Dstruct.Rounds.floor r)

let test_rounds_no_resurrection () =
  let r = Dstruct.Rounds.create () in
  Dstruct.Rounds.set r 4 1;
  Dstruct.Rounds.prune_below r 5;
  Alcotest.check_raises "find_or_add below floor"
    (Invalid_argument "Rounds.find_or_add: round 4 below floor 5") (fun () ->
      ignore (Dstruct.Rounds.find_or_add r 4 ~default:(fun () -> 0)));
  Alcotest.check_raises "set below floor"
    (Invalid_argument "Rounds.set: round 4 below floor 5") (fun () ->
      Dstruct.Rounds.set r 4 0)

let prop_rounds_model =
  (* Model check against a Map, with interleaved set/prune. *)
  QCheck.Test.make ~name:"rounds matches map model" ~count:200
    QCheck.(list (pair (int_bound 50) (option (int_bound 50))))
    (fun ops ->
      let module M = Map.Make (Int) in
      let r = Dstruct.Rounds.create () in
      let model = ref M.empty in
      let floor = ref 0 in
      List.for_all
        (fun (rn, op) ->
          match op with
          | Some v when rn >= !floor ->
              Dstruct.Rounds.set r rn v;
              model := M.add rn v !model;
              true
          | Some _ -> true (* skip writes below floor *)
          | None ->
              Dstruct.Rounds.prune_below r rn;
              if rn > !floor then begin
                floor := rn;
                model := M.filter (fun k _ -> k >= rn) !model
              end;
              M.for_all (fun k v -> Dstruct.Rounds.find r k = Some v) !model
              && Dstruct.Rounds.cardinal r = M.cardinal !model)
        ops)

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
