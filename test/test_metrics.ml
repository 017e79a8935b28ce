(* Tests for lib/metrics: forwarding index, path statistics and the
   analytic throughput model. *)

module Network = Nue_netgraph.Network
module Table = Nue_routing.Table
module Minhop = Nue_routing.Minhop
module Forwarding_index = Nue_metrics.Forwarding_index
module Pathstats = Nue_metrics.Pathstats
module Throughput_model = Nue_metrics.Throughput_model

let test_case = Alcotest.test_case

let line_loads () =
  (* Line of 3 switches, 1 terminal each: the middle links carry the
     crossing pairs. *)
  let net = Helpers.line 3 in
  let table = Minhop.route net in
  let loads = Forwarding_index.per_channel table in
  let c01 = Option.get (Network.find_channel net 0 1) in
  let c12 = Option.get (Network.find_channel net 1 2) in
  (* Channel s0 -> s1 carries t0->t1 and t0->t2. *)
  Alcotest.(check int) "c01" 2 loads.(c01);
  Alcotest.(check int) "c12" 2 loads.(c12);
  (* Terminal links carry (T-1) outgoing = 2. *)
  let t0 = (Network.terminals net).(0) in
  Alcotest.(check int) "terminal injection" 2
    loads.((Network.out_channels net t0).(0))

let summary_excludes_terminal_links () =
  let net = Helpers.line 3 in
  let table = Minhop.route net in
  let s =
    Forwarding_index.of_loads net (Forwarding_index.per_channel table)
  in
  (* 4 inter-switch channels: 2, 2 forward; 2, 2 backward. All equal. *)
  Alcotest.(check (float 1e-9)) "min" 2.0 s.Forwarding_index.min;
  Alcotest.(check (float 1e-9)) "max" 2.0 s.Forwarding_index.max;
  Alcotest.(check (float 1e-9)) "avg" 2.0 s.Forwarding_index.avg;
  Alcotest.(check (float 1e-9)) "sd" 0.0 s.Forwarding_index.sd

let aggregate_means () =
  let s1 = { Forwarding_index.min = 1.0; max = 3.0; avg = 2.0; sd = 0.5 } in
  let s2 = { Forwarding_index.min = 3.0; max = 5.0; avg = 4.0; sd = 1.5 } in
  let a = Forwarding_index.aggregate [ s1; s2 ] in
  Alcotest.(check (float 1e-9)) "min" 2.0 a.Forwarding_index.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 a.Forwarding_index.max;
  Alcotest.(check (float 1e-9)) "avg" 3.0 a.Forwarding_index.avg;
  Alcotest.(check (float 1e-9)) "sd" 1.0 a.Forwarding_index.sd

let pathstats_line () =
  let net = Helpers.line 4 in
  let table = Minhop.route net in
  let s = Pathstats.of_stats (Nue_routing.Verify.stats table) in
  Alcotest.(check int) "pairs" 12 s.Pathstats.pairs;
  Alcotest.(check int) "unreachable" 0 s.Pathstats.unreachable;
  (* Longest: end to end = 5 hops (t-s0-s1-s2-s3-t). *)
  Alcotest.(check int) "max" 5 s.Pathstats.max_hops;
  Alcotest.(check bool) "avg between 2 and 5" true
    (s.Pathstats.avg_hops > 2.0 && s.Pathstats.avg_hops < 5.0)

let throughput_line_bottleneck () =
  let net = Helpers.line 3 in
  let table = Minhop.route net in
  let t = Throughput_model.all_to_all table in
  (* gamma_max = 2 (middle links and terminal links tie at 2). With
     4 GB/s links: r = 2 GB/s per pair; 6 pairs -> 12 GB/s aggregate. *)
  Alcotest.(check (float 1e-9)) "gamma max" 2.0 t.Throughput_model.gamma_max;
  Alcotest.(check (float 1e-6)) "aggregate" 12.0 t.Throughput_model.aggregate_gbs;
  Alcotest.(check (float 1e-6)) "per terminal" 4.0
    t.Throughput_model.per_terminal_gbs

let throughput_better_balance_wins () =
  (* On the small torus, Nue with more VCs should never have a larger
     gamma_max... not guaranteed per-instance, so compare the clearly
     separated pair: Up*/Down* (root bottleneck) vs DFSSSP (balanced). *)
  let net = (Helpers.small_torus ()).Nue_netgraph.Topology.net in
  let ud = Throughput_model.all_to_all (Nue_routing.Updown.route net) in
  match Nue_routing.Dfsssp.route_structured net with
  | Error e -> Alcotest.fail (Nue_routing.Engine_error.to_string e)
  | Ok t ->
    let df = Throughput_model.all_to_all t in
    Alcotest.(check bool) "dfsssp >= updown" true
      (df.Throughput_model.aggregate_gbs >= ud.Throughput_model.aggregate_gbs)

let throughput_scales_with_capacity () =
  let net = Helpers.line 3 in
  let table = Minhop.route net in
  let a = Throughput_model.all_to_all ~link_capacity_gbs:4.0 table in
  let b = Throughput_model.all_to_all ~link_capacity_gbs:8.0 table in
  Alcotest.(check (float 1e-6)) "linear in capacity"
    (2.0 *. a.Throughput_model.aggregate_gbs)
    b.Throughput_model.aggregate_gbs

let suite =
  [ ("forwarding_index",
     [ test_case "line loads" `Quick line_loads;
       test_case "summary excludes terminals" `Quick
         summary_excludes_terminal_links;
       test_case "aggregate" `Quick aggregate_means ]);
    ("pathstats", [ test_case "line" `Quick pathstats_line ]);
    ("throughput_model",
     [ test_case "line bottleneck" `Quick throughput_line_bottleneck;
       test_case "balance ordering" `Quick throughput_better_balance_wins;
       test_case "linear in capacity" `Quick throughput_scales_with_capacity ]) ]
