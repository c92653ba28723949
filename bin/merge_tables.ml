(* Reassemble sharded experiment output (DESIGN.md §16).

   Usage: merge_tables SHARD_FILE...

   Each file comes from `experiments --shard i/k --shard-out FILE`. The
   headers must agree pairwise (same k, same experiment selection, same
   --quick/--metrics/--topology flags) and cover every index 1..k exactly
   once. The suite is then replayed with a Merge farm: no simulation
   runs — every row is looked up by its cell id — so the rendered stdout
   is byte-identical to the unsharded run of the same command. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let () =
  let paths = List.tl (Array.to_list Sys.argv) in
  if paths = [] then fail "usage: merge_tables SHARD_FILE...";
  let shards =
    List.map
      (fun p ->
        try Experiments.Suite.Shard.load p
        with e -> fail "%s: %s" p (Printexc.to_string e))
      paths
  in
  let first = List.hd shards in
  List.iter
    (fun (s : Experiments.Suite.Shard.file) ->
      if s.count <> first.count then
        fail "shard count mismatch: %d vs %d" s.count first.count;
      if s.ids <> first.ids then fail "shards ran different experiment sets";
      if s.quick <> first.quick then fail "shards mix --quick and full runs";
      if s.metrics <> first.metrics then fail "shards mix --metrics settings";
      if s.topology <> first.topology then
        fail "shards mix --topology overrides")
    shards;
  let seen =
    List.sort Int.compare
      (List.map (fun (s : Experiments.Suite.Shard.file) -> s.index) shards)
  in
  if seen <> List.init first.count (fun i -> i + 1) then
    fail "incomplete shard set: need every index 1..%d exactly once"
      first.count;
  let table = Hashtbl.create 256 in
  List.iter
    (fun (s : Experiments.Suite.Shard.file) ->
      List.iter (fun (id, rows) -> Hashtbl.replace table id rows) s.cells)
    shards;
  let obs =
    {
      Experiments.Suite.no_obs with
      metrics = first.metrics;
      topology =
        (if first.topology = "-" then None
         else Net.Topology.kind_of_string first.topology);
      farm = { Experiments.Suite.mode = Merge table; next_cell = 0 };
    }
  in
  let selected =
    List.filter
      (fun (id, _, _) -> List.mem id first.ids)
      Experiments.Suite.all
  in
  (* Nothing executes under Merge; a sequential pool is just the cheapest
     way to satisfy the signature. *)
  Parallel.Pool.with_pool ~jobs:1 (fun pool ->
      List.iter (fun (_, _, f) -> f ~pool ~quick:first.quick ~obs) selected)
