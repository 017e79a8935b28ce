(* Property-based correctness net (Theorem 2, Definition 3).

   210 seeded, deterministic cases: 5 topology families x 42 parameter
   draws, each with a rotating fault plan (none / random link failures /
   switch kill / link cut). Every registered engine is run on every
   case through the Engine registry, and each outcome is checked
   against the engine's declared capabilities:

   - an [Ok] table must be cycle-free (Definition 3);
   - engines with [deadlock_free] must produce an acyclic virtual
     channel dependency graph — the per-layer induced CDGs are acyclic
     (Theorem 2 / Dally & Seitz via [Verify.check]);
   - engines without [may_disconnect] must route every terminal pair;
   - engines with [respects_vc_budget] may not exceed the VL budget nor
     return [Vc_budget_exceeded];
   - no engine may surface [Internal] (a trapped exception).

   The net does not require an [Ok] from every engine, and needs no
   existence oracle for that: every case here has a deadlock-free
   routing. Mendlovic and Matias's condition (Existence of Deadlock-Free
   Routing for Arbitrary Networks) asks for an edge-disjoint in-tree and
   out-tree rooted at one node, and a connected duplex fabric meets it
   with the two orientations of one spanning tree ([Network.rev]). An
   [Unroutable] from a topology-agnostic engine is the engine being
   conservative, never the fabric forcing it. *)

module Network = Nue_netgraph.Network
module Prng = Nue_structures.Prng
module Engine = Nue_routing.Engine
module Engine_error = Nue_routing.Engine_error
module Verify = Nue_routing.Verify
module Experiment = Nue_pipeline.Experiment

let test_case = Alcotest.test_case
let cases_per_family = 42
let master_seed = 2026

type family = { fam_name : string; draw : Prng.t -> Experiment.topology }

(* Parameter draws are deliberately tiny: the point is breadth (families
   x faults x engines), and the whole net must stay inside tier-1's
   time budget. *)
let families =
  [ { fam_name = "random";
      draw =
        (fun p ->
           let switches = 6 + Prng.int p 8 in
           let links = switches - 1 + Prng.int p 14 in
           let max_links = switches * (switches - 1) / 2 in
           Experiment.Random
             { switches; links = min links max_links;
               terminals = 1 + Prng.int p 2 }) };
    { fam_name = "torus3d";
      draw =
        (fun p ->
           let dims =
             [| (3, 3, 2); (4, 3, 2); (3, 3, 3); (4, 4, 2) |].(Prng.int p 4)
           in
           Experiment.Torus3d { dims; terminals = 1; redundancy = 1 }) };
    { fam_name = "mesh";
      draw =
        (fun p ->
           let d () = 2 + Prng.int p 3 in
           let dims =
             if Prng.int p 2 = 0 then [| d (); d () |]
             else [| d (); d (); 2 |]
           in
           Experiment.Mesh { dims; terminals = 1 }) };
    { fam_name = "kary-ntree";
      draw =
        (fun p ->
           Experiment.Kary_ntree
             { k = 2; n = 2 + Prng.int p 2; terminals = 1 + Prng.int p 2 }) };
    { fam_name = "hypercube";
      draw =
        (fun p ->
           Experiment.Hypercube
             { dim = 2 + Prng.int p 3; terminals = 1 }) } ]

(* Fault plans reference concrete node/link ids, so they are drawn from
   an intact build of the same topology (same seed => same network). *)
let fault_plan prng case topology seed =
  match case mod 4 with
  | 0 -> Experiment.No_faults
  | 1 -> Experiment.Link_failures (0.03 +. (float_of_int (Prng.int prng 8) /. 100.0))
  | 2 ->
    let intact = Experiment.build (Experiment.setup ~seed topology) in
    let sws = Network.switches intact.Experiment.net in
    Experiment.Kill_switches [ sws.(Prng.int prng (Array.length sws)) ]
  | _ ->
    let intact = Experiment.build (Experiment.setup ~seed topology) in
    let pairs =
      Network.duplex_pairs intact.Experiment.net
      |> Array.to_list
      |> List.filter (fun (a, b) ->
          Network.is_switch intact.Experiment.net a
          && Network.is_switch intact.Experiment.net b)
    in
    (match pairs with
     | [] -> Experiment.No_faults
     | _ -> Experiment.Cut_links [ List.nth pairs (Prng.int prng (List.length pairs)) ])

(* A fault plan that disconnects the network is rejected by the fault
   injector; such draws fall back to the intact topology so every case
   still exercises all engines. *)
let build_case prng fam case =
  let seed = master_seed + (1000 * case) + Hashtbl.hash fam.fam_name mod 997 in
  let topology = fam.draw prng in
  let faults = fault_plan prng case topology seed in
  let faulted =
    match Experiment.build (Experiment.setup ~faults ~seed topology) with
    | built -> Some built
    | exception Invalid_argument _ -> None
  in
  match faulted with
  | Some built -> (built, faults <> Experiment.No_faults)
  | None -> (Experiment.build (Experiment.setup ~seed topology), false)

let check_outcome ~ctx ~vcs built (module E : Engine.ENGINE) =
  let caps = E.capabilities in
  let spec = Experiment.spec ~vcs built in
  match Engine.route E.name spec with
  | Error (Engine_error.Internal msg) ->
    Alcotest.failf "%s/%s: internal error: %s" ctx E.name msg
  | Error (Engine_error.Unknown_engine _) ->
    Alcotest.failf "%s/%s: registry lost the engine" ctx E.name
  | Error (Engine_error.Vc_budget_exceeded _) when caps.Engine.respects_vc_budget ->
    Alcotest.failf "%s/%s: claims to respect any VC budget but exceeded it"
      ctx E.name
  | Error (Engine_error.Topology_mismatch _)
    when (not caps.Engine.needs_torus_coords) && not caps.Engine.needs_tree_meta ->
    Alcotest.failf "%s/%s: topology mismatch from a topology-agnostic engine"
      ctx E.name
  | Error _ ->
    (* Structured, capability-consistent failure: inside the contract. *)
    ()
  | Ok table ->
    let r = Verify.check table in
    if not r.Verify.cycle_free then
      Alcotest.failf "%s/%s: forwarding loop" ctx E.name;
    if caps.Engine.deadlock_free && not r.Verify.deadlock_free then
      Alcotest.failf "%s/%s: VL dependency cycle (Theorem 2 violated)" ctx
        E.name;
    if not caps.Engine.may_disconnect then begin
      if not r.Verify.connected then
        Alcotest.failf "%s/%s: %d unreachable pairs" ctx E.name
          r.Verify.unreachable_pairs;
      if r.Verify.unreachable_pairs <> 0 then
        Alcotest.failf "%s/%s: unreachable pairs on connected table" ctx
          E.name
    end;
    if caps.Engine.respects_vc_budget && Verify.vls_used table > vcs then
      Alcotest.failf "%s/%s: used %d VLs with budget %d" ctx E.name
        (Verify.vls_used table) vcs

let family_test fam () =
  let engines = Engine.all () in
  Alcotest.(check bool) "registry populated" true (List.length engines >= 5);
  let prng = Prng.create (master_seed + Hashtbl.hash fam.fam_name) in
  let faulted_cases = ref 0 in
  for case = 1 to cases_per_family do
    let built, has_faults = build_case prng fam case in
    if has_faults then incr faulted_cases;
    (* Rotate the budget so both the scarce (2) and roomy (8) regimes
       are covered deterministically. *)
    let vcs = [| 2; 4; 8 |].(case mod 3) in
    let ctx = Printf.sprintf "%s#%d(vcs=%d)" fam.fam_name case vcs in
    List.iter (check_outcome ~ctx ~vcs built) engines
  done;
  (* The net must actually contain fault scenarios, not just intact
     topologies that happened to survive the fallback. *)
  Alcotest.(check bool)
    (fam.fam_name ^ ": fault cases present") true (!faulted_cases >= 10)

let coverage_floor () =
  Alcotest.(check bool) "at least 4 families" true (List.length families >= 4);
  Alcotest.(check bool) "at least 200 cases" true
    (List.length families * cases_per_family >= 200)

(* A known answer (Cano et al., HOTI 2025): on a fault-free full mesh
   a minimal path crosses at most one switch-to-switch channel, so it
   makes no switch-to-switch-to-switch dependency and minimal routing
   is deadlock-free on one VL. With t terminals per switch and
   N = switches * t terminals, each source reaches t - 1 terminals in 2
   hops and N - t in 3, and every switch-to-switch channel carries the
   t * t pairs between its two switches. Each engine that routes a
   full mesh minimally must meet all three; Nue does because
   [Balance.tie_break_scale] keeps a three-channel path's weight below
   every longer path's. Static-CDG need not (max 25 at 16 x 4). *)
let known_answer_engines =
  [ "nue"; "minhop"; "sssp"; "dfsssp"; "lash"; "updown" ]

let qcheck_full_mesh =
  QCheck2.Test.make ~name:"full mesh: one VL, minimal, t^2 on every channel"
    ~count:30
    QCheck2.Gen.(triple (int_range 3 16) (int_range 1 4) (int_range 1 1000))
    (fun (switches, t, seed) ->
       let built =
         Experiment.build
           (Experiment.setup ~seed
              (Experiment.Fully_connected { switches; terminals = t }))
       in
       let n = switches * t in
       let hops =
         float_of_int ((2 * (t - 1)) + (3 * (n - t))) /. float_of_int (n - 1)
       in
       let load = float_of_int (t * t) in
       List.for_all
         (fun engine ->
            match (Experiment.run ~vcs:1 ~engine built).Experiment.metrics with
            | None -> QCheck2.Test.fail_reportf "%s: no table" engine
            | Some m ->
              let v = m.Experiment.verify
              and f = m.Experiment.forwarding
              and avg = m.Experiment.paths.Nue_metrics.Pathstats.avg_hops in
              if v.Verify.connected && v.Verify.deadlock_free
                 && m.Experiment.vls_used = 1
                 && Float.abs (avg -. hops) < 1e-9
                 && f.Nue_metrics.Forwarding_index.min = load
                 && f.Nue_metrics.Forwarding_index.max = load
              then true
              else
                QCheck2.Test.fail_reportf
                  "%s on %d x %d: %d VL(s), avg hops %g (want %g), load %g..%g \
                   (want %g)"
                  engine switches t m.Experiment.vls_used avg hops
                  f.Nue_metrics.Forwarding_index.min
                  f.Nue_metrics.Forwarding_index.max load)
         known_answer_engines)

let suite =
  [ ("invariants:fullmesh",
     [ QCheck_alcotest.to_alcotest qcheck_full_mesh ]);
    ("invariants:theorem2",
     test_case "coverage floor (>=4 families, >=200 cases)" `Quick
       coverage_floor
     :: List.map
          (fun fam ->
             test_case
               (Printf.sprintf "%s x%d cases, all engines" fam.fam_name
                  cases_per_family)
               `Quick (family_test fam))
          families) ]
