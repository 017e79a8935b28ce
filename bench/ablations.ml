(* Ablation benches for Nue's design choices (DESIGN.md):
   ABL-PART  — destination partitioning strategy (Section 4.5);
   ABL-ROOT  — central escape root vs arbitrary root (Section 4.3);
   ABL-OPT   — backtracking / shortcuts toggles (Sections 4.6.2/4.6.3);
   ABL-WEIGHTS — global vs per-layer balancing weights. *)

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Nue = Nue_core.Nue
module Partition = Nue_core.Partition
module Fi = Nue_metrics.Forwarding_index
module Ps = Nue_metrics.Pathstats
module Prng = Nue_structures.Prng

let test_net ~full =
  let switches, links, terms = if full then (125, 1000, 8) else (64, 500, 8) in
  Topology.random (Prng.create 7) ~switches ~inter_switch_links:links
    ~terminals_per_switch:terms ()

let report label table stats seconds =
  let walked = Nue_routing.Verify.stats table in
  let g =
    Fi.of_loads table.Nue_routing.Table.net walked.Nue_routing.Verify.loads
  in
  let p = Ps.of_stats walked in
  Printf.printf "%s%s%s%s%s%s%s\n%!"
    (Common.cell 26 label)
    (Common.cell 10 (Common.fmt_f1 g.Fi.max))
    (Common.cell 10 (Common.fmt_f1 g.Fi.avg))
    (Common.cell 10 (string_of_int p.Ps.max_hops))
    (Common.cell 10 (Common.fmt_f2 p.Ps.avg_hops))
    (Common.cell 11 (string_of_int stats.Nue.fallbacks))
    (Common.cell 8 (Common.fmt_f2 seconds))

let header () =
  Common.print_header
    [ (26, "variant"); (10, "G_max"); (10, "G_avg"); (10, "max_hops");
      (10, "avg_hops"); (11, "fallbacks"); (8, "time s") ]

let run_variant net label options vcs =
  let (table, stats), seconds =
    Common.time (fun () -> Nue.route_with_stats ~options ~vcs net)
  in
  report label table stats seconds

let partitioning ~full () =
  Common.section "ABL-PART: partitioning strategy (k = 4)";
  let net = test_net ~full in
  Common.describe net;
  header ();
  List.iter
    (fun (name, strategy) ->
       run_variant net name { Nue.default_options with strategy } 4)
    [ ("kway (paper default)", Partition.Kway);
      ("random", Partition.Random);
      ("clustered", Partition.Clustered) ]

let root_selection ~full () =
  Common.section
    "ABL-ROOT: escape-tree root selection (k = 8, per-subset roots)";
  (* Root choice matters when each layer serves a destination *subset*
     (Section 4.3): the central root keeps the subset's escape paths
     short. Regular topologies with long escape trees show it best. *)
  let nets =
    [ ("kautz",
       Topology.kautz ~degree:5 ~diameter:3
         ~terminals_per_switch:(if full then 7 else 4) ());
      ("torus-5x5x5",
       (Topology.torus3d ~dims:(5, 5, 5) ~terminals_per_switch:2 ()).Topology.net) ]
  in
  header ();
  List.iter
    (fun (tname, net) ->
       List.iter
         (fun (name, central_root) ->
            run_variant net
              (Printf.sprintf "%s/%s" tname name)
              { Nue.default_options with central_root }
              8)
         [ ("central", true); ("arbitrary", false) ])
    nets;
  print_endline
    "\n(At k = 1 the subset is the whole node set, so the choice barely\n\
     matters; with real subsets the central root avoids fallbacks and\n\
     G_max inflation.)"

let optimizations ~full () =
  Common.section "ABL-OPT: impasse optimizations (k = 1, hardest case)";
  (* Random networks no longer hit impasses at this scale (the
     relaxation filter keeps the CDG permissive); the Kautz graph's
     dense short cycles still do, making it the stress case. *)
  let net =
    Topology.kautz ~degree:5 ~diameter:3
      ~terminals_per_switch:(if full then 7 else 4) ()
  in
  Common.describe net;
  header ();
  List.iter
    (fun (name, bt, sc) ->
       run_variant net name
         { Nue.default_options with use_backtracking = bt; use_shortcuts = sc }
         1)
    [ ("backtrack+shortcuts", true, true);
      ("backtrack only", true, false);
      ("shortcuts only", false, true);
      ("neither (escape-only)", false, false) ]

let weights ~full () =
  Common.section "ABL-WEIGHTS: balancing weight scope (k = 8)";
  let net = test_net ~full in
  header ();
  List.iter
    (fun (name, global_weights) ->
       run_variant net name { Nue.default_options with global_weights } 8)
    [ ("global across layers", true); ("per-layer (paper-literal)", false) ]

let run_all ~full () =
  partitioning ~full ();
  root_selection ~full ();
  optimizations ~full ();
  weights ~full ()

(* ABL-IMPASSE: quantify Section 3's motivation. A static a-priori
   acyclic restriction of the CDG (Cherkasova/BSOR style) strands
   source-destination pairs; Nue's incremental restriction placement
   with escape paths never does. *)
let impasse ~full () =
  Common.section "ABL-IMPASSE: static acyclic CDG vs incremental (Section 3)";
  let net = test_net ~full in
  Common.describe net;
  let terms = Network.num_terminals net in
  let pairs = terms * (terms - 1) in
  Common.print_header
    [ (30, "approach"); (14, "unreachable"); (12, "of pairs") ];
  List.iter
    (fun seed ->
       let table = Nue_routing.Static_cdg.route ~seed net in
       let unreachable =
         (Nue_routing.Verify.check table).Nue_routing.Verify.unreachable_pairs
       in
       Printf.printf "%s%s%s\n%!"
         (Common.cell 30 (Printf.sprintf "static acyclic CDG (seed %d)" seed))
         (Common.cell 14 (string_of_int unreachable))
         (Common.cell 12
            (Printf.sprintf "%.2f%%"
               (100.0 *. float_of_int unreachable /. float_of_int pairs))))
    [ 1; 2; 3 ];
  let table, stats = Nue.route_with_stats ~vcs:1 net in
  let connected = Nue_routing.Verify.connected table in
  Printf.printf "%s%s%s  (escape fallbacks: %d)\n"
    (Common.cell 30 "nue k=1 (incremental)")
    (Common.cell 14 (if connected then "0" else "!"))
    (Common.cell 12 "0.00%")
    stats.Nue.fallbacks
