(* Plugging a hand-written delay oracle into the public API.

   The scenario library covers the paper's assumption families, but the
   network accepts any delay oracle. Here we model a concrete topology:
   three sites (A: processes 0-2, B: 3-5, C: 6-7). Intra-site links are
   fast; inter-site links are slow and jittery; and each site's border
   router blacks out for two seconds out of every ten (staggered), delaying
   all egress — so every machine looks crashed to the other sites now and
   then. Process 1 (site A) rides a premium low-latency path that bypasses
   the border router — making it, de facto, an eventual t-source, so
   Figure 3 elects it without any scenario machinery.

     dune exec examples/custom_oracle.exe *)

let site = function
  | 0 | 1 | 2 -> `A
  | 3 | 4 | 5 -> `B
  | _ -> `C

let () =
  let n = 8 and t = 3 in
  let engine = Sim.Engine.create ~seed:3L () in
  let rng = Dstruct.Rng.split (Sim.Engine.rng engine) in
  (* The oracle returns the delay in microseconds (a negative value would
     drop the message). One stream shared by every sender keeps the example
     short; oracles meant for intra-run parallel execution key a stream on
     the executor [at] instead. *)
  let oracle ~now ~seq:_ ~at:_ ~src ~dst _msg =
    let base =
      if src = dst then 50
      else if src = 1 then 300 (* premium path: always sub-millisecond *)
      else if site src = site dst then 200 + Dstruct.Rng.int rng 800
      else 3_000 + Dstruct.Rng.int rng 25_000
    in
    let hiccup =
      (* Border-router blackout: 2s of every 10s, staggered per site; all
         egress except process 1's premium path is held up. *)
      let phase =
        match site src with `A -> 0 | `B -> 3_300_000 | `C -> 6_600_000
      in
      if
        src <> dst && src <> 1
        && (Sim.Time.to_us now + phase) mod 10_000_000 < 2_000_000
      then 2_000_000 + Dstruct.Rng.int rng 1_000_000
      else 0
    in
    base + hiccup
  in
  let net =
    Net.Spec.(default |> with_oracle_us oracle) |> fun spec ->
    Net.Network.of_spec spec engine ~n
  in
  let config = Omega.Config.default ~n ~t Omega.Config.Fig3 in
  let cluster = Omega.Cluster.create config net in
  Omega.Cluster.start cluster;
  Sim.Engine.run_until engine (Sim.Time.of_sec 20);
  Format.printf "leaders after 20s: %s@."
    (String.concat " "
       (List.map
          (fun (p, l) -> Printf.sprintf "p%d->%d" p l)
          (Omega.Cluster.leaders cluster)));
  match Omega.Cluster.agreed_leader cluster with
  | Some 1 -> Format.printf "elected the premium-path process 1, as expected@."
  | Some l -> Format.printf "elected %d@." l
  | None -> Format.printf "no agreement (unexpected for this topology)@."
