(* Cross-cutting property tests: every deadlock-free routing engine must
   produce valid tables on arbitrary connected topologies, and the
   simulator must respect ordering/conservation invariants. *)

module Network = Nue_netgraph.Network
module Verify = Nue_routing.Verify
module Table = Nue_routing.Table
module Sim = Nue_sim.Sim
module Traffic = Nue_sim.Traffic
module Prng = Nue_structures.Prng

let qcheck_updown_valid =
  QCheck2.Test.make ~name:"updown valid on random topologies" ~count:25
    Helpers.arbitrary_net
    (fun net ->
       let r = Verify.check (Nue_routing.Updown.route net) in
       r.Verify.connected && r.Verify.cycle_free && r.Verify.deadlock_free)

let qcheck_dfsssp_valid_when_applicable =
  QCheck2.Test.make ~name:"dfsssp valid whenever applicable" ~count:25
    Helpers.arbitrary_net
    (fun net ->
       match Nue_routing.Dfsssp.route_structured ~max_vls:8 net with
       | Error _ -> true (* inapplicability is a legal outcome *)
       | Ok table ->
         let r = Verify.check table in
         r.Verify.connected && r.Verify.cycle_free && r.Verify.deadlock_free)

let qcheck_lash_valid_when_applicable =
  QCheck2.Test.make ~name:"lash valid whenever applicable" ~count:25
    Helpers.arbitrary_net
    (fun net ->
       match Nue_routing.Lash.route_structured ~max_vls:8 net with
       | Error _ -> true
       | Ok table ->
         let r = Verify.check table in
         r.Verify.connected && r.Verify.cycle_free && r.Verify.deadlock_free)

let qcheck_minhop_shortest =
  QCheck2.Test.make ~name:"minhop paths are minimal" ~count:25
    Helpers.arbitrary_net
    (fun net ->
       let table = Nue_routing.Minhop.route net in
       let terms = Network.terminals net in
       Array.for_all
         (fun dest ->
            let bfs = Nue_netgraph.Graph_algo.bfs_distances net dest in
            Array.for_all
              (fun src ->
                 src = dest
                 || Option.map List.length (Table.path table ~src ~dest)
                    = Some bfs.(src))
              terms)
         table.Table.dests)

let qcheck_static_cdg_deadlock_free =
  QCheck2.Test.make ~name:"static-cdg always deadlock-free (if incomplete)"
    ~count:20 Helpers.arbitrary_net
    (fun net ->
       Verify.deadlock_free (Nue_routing.Static_cdg.route net))

let qcheck_escape_trees_acyclic =
  QCheck2.Test.make ~name:"escape preparation keeps the CDG acyclic"
    ~count:20 Helpers.arbitrary_net
    (fun net ->
       let cdg = Nue_cdg.Complete_cdg.create net in
       let root = (Network.switches net).(0) in
       let _ =
         Nue_core.Escape.prepare cdg ~root ~dests:(Network.terminals net)
       in
       Nue_cdg.Complete_cdg.used_subgraph_acyclic cdg)

(* Simulator: messages between one (src, dst) pair are delivered in
   injection order (wormhole per-VL FIFOs must not reorder). Verified
   via packet latencies: with one sender and one receiver on a line,
   completion times are strictly increasing per injection order, so
   avg latency of the first half must not exceed the second half. *)
let sim_in_order_delivery () =
  let net = Helpers.line 3 in
  let table = Nue_routing.Minhop.route net in
  let terms = Network.terminals net in
  let traffic =
    List.init 20 (fun _ ->
        { Traffic.src = terms.(0); dst = terms.(2); bytes = 512 })
  in
  let out = Sim.run table ~traffic in
  Alcotest.(check int) "all delivered" 20 out.Sim.delivered_packets;
  (* A single uncontended flow is a pipeline: constant per-packet
     latency (p50 = p99) and completion exactly at injection rate. *)
  Alcotest.(check (float 1e-9)) "pipeline latency flat"
    out.Sim.latency_p50 out.Sim.latency_p99;
  (* 20 packets x 8 flits at 1 flit/cycle plus pipeline fill. *)
  Alcotest.(check bool) "cycles near serialization bound" true
    (out.Sim.cycles >= 160 && out.Sim.cycles <= 200)

(* Determinism of the full pipeline: same seed, same simulated cycles. *)
let end_to_end_deterministic () =
  let net = Helpers.random_net ~seed:33 () in
  let run () =
    let table = Nue_core.Nue.route ~vcs:2 net in
    let traffic =
      Traffic.uniform_random (Prng.create 4) net ~messages_per_terminal:5
        ~message_bytes:256
    in
    (Sim.run table ~traffic).Sim.cycles
  in
  Alcotest.(check int) "same cycle count" (run ()) (run ())

(* Serialization round-trips arbitrary generated networks. *)
let qcheck_serialize_roundtrip =
  QCheck2.Test.make ~name:"serialize round-trips random networks" ~count:30
    Helpers.arbitrary_net
    (fun net ->
       let net' =
         Nue_netgraph.Serialize.of_string
           (Nue_netgraph.Serialize.to_string net)
       in
       Network.num_nodes net = Network.num_nodes net'
       && Nue_netgraph.Network.duplex_pairs net
          = Nue_netgraph.Network.duplex_pairs net'
       && Array.for_all2
            (fun a b -> a = b)
            (Array.init (Network.num_nodes net) (Network.is_switch net))
            (Array.init (Network.num_nodes net') (Network.is_switch net')))

(* The analytic model and the flit simulator must agree on ordering for
   clearly separated routings (guards against the model diverging from
   the thing it approximates). *)
let model_vs_sim_ordering () =
  let net = (Helpers.small_torus ()).Nue_netgraph.Topology.net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:512 in
  let measure table =
    ((Nue_metrics.Throughput_model.all_to_all table)
       .Nue_metrics.Throughput_model.aggregate_gbs,
     (Sim.run table ~traffic).Sim.aggregate_gbs)
  in
  let m_ud, s_ud = measure (Nue_routing.Updown.route net) in
  let m_nue, s_nue = measure (Nue_core.Nue.route ~vcs:4 net) in
  (* Up*/Down* has a severe root bottleneck on a torus; both metrics
     must rank Nue(k=4) above it. *)
  Alcotest.(check bool) "model ranks nue first" true (m_nue > m_ud);
  Alcotest.(check bool) "sim agrees" true (s_nue > s_ud)

(* Table info plumbing from Nue stats. *)
let nue_info_keys_present () =
  let table = Nue_core.Nue.route ~vcs:2 (Helpers.ring5 ()) in
  List.iter
    (fun key ->
       Alcotest.(check bool) key true
         (Nue_routing.Table.info_value table key <> None))
    [ "fallbacks"; "backtracks"; "shortcuts"; "impasse_dests";
      "initial_deps"; "cycle_searches" ]

let suite =
  [ ("properties",
     [ QCheck_alcotest.to_alcotest qcheck_updown_valid;
       QCheck_alcotest.to_alcotest qcheck_dfsssp_valid_when_applicable;
       QCheck_alcotest.to_alcotest qcheck_lash_valid_when_applicable;
       QCheck_alcotest.to_alcotest qcheck_minhop_shortest;
       QCheck_alcotest.to_alcotest qcheck_static_cdg_deadlock_free;
       QCheck_alcotest.to_alcotest qcheck_escape_trees_acyclic;
       Alcotest.test_case "sim in-order single flow" `Quick
         sim_in_order_delivery;
       Alcotest.test_case "end-to-end determinism" `Quick
         end_to_end_deterministic;
       QCheck_alcotest.to_alcotest qcheck_serialize_roundtrip;
       Alcotest.test_case "model vs sim ordering" `Quick
         model_vs_sim_ordering;
       Alcotest.test_case "nue info keys" `Quick nue_info_keys_present ]) ]

