(* Tests for graph metrics, histograms and the ibnetdiscover parser. *)

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Graph_metrics = Nue_netgraph.Graph_metrics
module Serialize = Nue_netgraph.Serialize
module Graph_algo = Nue_netgraph.Graph_algo
module Histogram = Nue_metrics.Histogram
module Prng = Nue_structures.Prng

let test_case = Alcotest.test_case

(* {1 Graph_metrics} *)

let metrics_line () =
  let net = Helpers.line 5 in
  let m = Graph_metrics.analyze net in
  Alcotest.(check int) "diameter" 4 m.Graph_metrics.diameter;
  Alcotest.(check int) "radius" 2 m.Graph_metrics.radius;
  Alcotest.(check int) "links" 4 m.Graph_metrics.inter_switch_links;
  Alcotest.(check int) "switches" 5 m.Graph_metrics.switches

let metrics_hypercube () =
  let net = Topology.hypercube ~dim:4 ~terminals_per_switch:1 () in
  let m = Graph_metrics.analyze net in
  Alcotest.(check int) "diameter = dim" 4 m.Graph_metrics.diameter;
  Alcotest.(check int) "radius = dim" 4 m.Graph_metrics.radius;
  (* Hypercube bisection = 2^(d-1); a random balanced cut can only be
     >= that. *)
  Alcotest.(check bool) "bisection bound >= true width" true
    (m.Graph_metrics.bisection_upper_bound >= 8)

let metrics_terminal_distance () =
  (* Two terminals on one switch: distance 2; that is also the
     average. *)
  let net = Helpers.single_switch_pair () in
  let m = Graph_metrics.analyze net in
  Alcotest.(check (float 1e-9)) "avg terminal distance" 2.0
    m.Graph_metrics.avg_terminal_distance

let degree_histogram_counts () =
  let net = Topology.hypercube ~dim:3 ~terminals_per_switch:2 () in
  (* Every switch: 3 cube links + 2 terminals = degree 5. *)
  Alcotest.(check (list (pair int int))) "uniform degrees" [ (5, 8) ]
    (Graph_metrics.degree_histogram net)

(* {1 Histogram} *)

let histogram_basics () =
  let h = Histogram.create ~bins:4 ~lo:0.0 ~hi:4.0 () in
  List.iter (Histogram.add h) [ 0.5; 1.5; 1.6; 2.5; 3.5; 9.0 (* clamps *) ];
  Alcotest.(check int) "count" 6 (Histogram.count h);
  Alcotest.(check bool) "mean sane" true (Histogram.mean h > 1.0);
  Alcotest.(check (float 1e-9)) "median bucket edge" 2.0
    (Histogram.percentile h 0.5)

let histogram_of_samples () =
  let h = Histogram.of_samples [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.(check (float 1e-6)) "mean" 2.5 (Histogram.mean h)

let histogram_render () =
  let h = Histogram.of_samples [ 1.0; 1.0; 2.0 ] in
  let s = Histogram.render h in
  Alcotest.(check bool) "has bars" true
    (String.contains s '#' && String.contains s '\n')

(* {1 ibnetdiscover parser} *)

let sample_dump = {|
vendid=0x2c9
devid=0xbd36
sysimgguid=0x2c90200423e73

Switch	4 "S-0001"		# "sw0" base port 0 lid 3 lmc 0
[1]	"H-000a"[1](a1)		# "node-0 HCA-1" lid 2 4xQDR
[2]	"S-0002"[1]		# "sw1" lid 6 4xQDR
[3]	"S-0002"[2]		# parallel link
[4]	"H-000b"[1]		# "node-1 HCA-1" lid 9

Switch	4 "S-0002"		# "sw1"
[1]	"S-0001"[2]
[2]	"S-0001"[3]
[3]	"H-000c"[1]		# "node-2 HCA-1"

Ca	1 "H-000a"		# "node-0 HCA-1"
[1](a1) 	"S-0001"[1]		# lid 2 lmc 0 "sw0" lid 3

Ca	1 "H-000b"
[1]	"S-0001"[4]

Ca	1 "H-000c"
[1]	"S-0002"[3]
|}

let ibnetdiscover_parses () =
  let net = Serialize.of_ibnetdiscover sample_dump in
  Alcotest.(check int) "switches" 2 (Network.num_switches net);
  Alcotest.(check int) "terminals" 3 (Network.num_terminals net);
  (* 2 switch-switch (parallel) + 3 terminal links = 5 duplex links. *)
  Alcotest.(check int) "links" 5 (Network.num_channels net / 2);
  Alcotest.(check bool) "connected" true (Graph_algo.is_connected net);
  (* Parallel links preserved between the two switches. *)
  let s0 = (Network.switches net).(0) in
  let parallel =
    Array.to_list (Network.out_channels net s0)
    |> List.filter (fun c -> Network.is_switch net (Network.dst net c))
  in
  Alcotest.(check int) "two parallel switch links" 2 (List.length parallel)

let ibnetdiscover_routes () =
  let net = Serialize.of_ibnetdiscover sample_dump in
  Helpers.check_table_valid "nue/ibnetdiscover" (Nue_core.Nue.route ~vcs:1 net)

let ibnetdiscover_rejects_multiport_ca () =
  let bad =
    "Switch 2 \"S-1\"\n[1] \"H-1\"[1]\n[2] \"H-1\"[2]\n\
     Ca 2 \"H-1\"\n[1] \"S-1\"[1]\n[2] \"S-1\"[2]\n"
  in
  Alcotest.(check bool) "rejected" true
    (match Serialize.of_ibnetdiscover bad with
     | exception Invalid_argument _ -> true
     | _ -> false)

let suite =
  [ ("graph_metrics",
     [ test_case "line" `Quick metrics_line;
       test_case "hypercube" `Quick metrics_hypercube;
       test_case "terminal distance" `Quick metrics_terminal_distance;
       test_case "degree histogram" `Quick degree_histogram_counts ]);
    ("histogram",
     [ test_case "basics" `Quick histogram_basics;
       test_case "of_samples" `Quick histogram_of_samples;
       test_case "render" `Quick histogram_render ]);
    ("ibnetdiscover",
     [ test_case "parses sample" `Quick ibnetdiscover_parses;
       test_case "routes parsed fabric" `Quick ibnetdiscover_routes;
       test_case "rejects multiport CA" `Quick
         ibnetdiscover_rejects_multiport_ca ]) ]
