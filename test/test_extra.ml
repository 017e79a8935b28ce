(* Second-wave tests: edge cases and behaviors not covered by the
   module-focused suites. *)

module Network = Nue_netgraph.Network
module Graph_algo = Nue_netgraph.Graph_algo
module Topology = Nue_netgraph.Topology
module Fault = Nue_netgraph.Fault
module Complete_cdg = Nue_cdg.Complete_cdg
module Table = Nue_routing.Table
module Verify = Nue_routing.Verify
module Layers = Nue_routing.Layers
module Minhop = Nue_routing.Minhop
module Nue = Nue_core.Nue
module Sim = Nue_sim.Sim
module Traffic = Nue_sim.Traffic
module Prng = Nue_structures.Prng

let test_case = Alcotest.test_case

(* {1 Graph_algo.shortest_path_dag_counts} *)

let dag_counts_ring () =
  (* Even ring: the opposite node has two shortest paths. *)
  let net = Helpers.ring ~terminals:0 6 in
  let dist, count = Graph_algo.shortest_path_dag_counts net ~dest:0 in
  Alcotest.(check int) "opposite distance" 3 dist.(3);
  Alcotest.(check (float 0.0)) "two shortest paths" 2.0 count.(3);
  Alcotest.(check (float 0.0)) "neighbor unique" 1.0 count.(1)

let dag_counts_multigraph () =
  (* Parallel links multiply path counts (channel-sequence paths). *)
  let b = Network.Builder.create () in
  let s0 = Network.Builder.add_switch b in
  let s1 = Network.Builder.add_switch b in
  Network.Builder.connect b s0 s1;
  Network.Builder.connect b s0 s1;
  let net = Network.Builder.build b in
  let _, count = Graph_algo.shortest_path_dag_counts net ~dest:s1 in
  Alcotest.(check (float 0.0)) "two parallel paths" 2.0 count.(s0)

(* {1 Verify.vls_used} *)

let vls_used_per_scheme () =
  let net = Helpers.line 3 in
  let base = Minhop.route net in
  Alcotest.(check int) "all_zero" 1 (Verify.vls_used base);
  let dests = base.Table.dests in
  let t2 =
    Table.make ~net ~algorithm:"x" ~dests ~next_channel:base.Table.next_channel
      ~vl:(Table.Per_dest (Array.mapi (fun i _ -> i mod 2) dests))
      ~num_vls:2 ()
  in
  Alcotest.(check int) "per_dest" 2 (Verify.vls_used t2);
  let nn = Network.num_nodes net in
  let t3 =
    Table.make ~net ~algorithm:"x" ~dests ~next_channel:base.Table.next_channel
      ~vl:(Table.Per_hop (fun ~src:_ ~dest:_ ~hop ~channel:_ -> min hop 2))
      ~num_vls:3 ()
  in
  ignore nn;
  (* Longest path has 3 hops: VLs 0,1,2 all appear. *)
  Alcotest.(check int) "per_hop" 3 (Verify.vls_used t3)

(* {1 Nue corner cases} *)

let nue_more_vcs_than_dests () =
  let net = Helpers.ring5 () in
  (* 5 destinations, 16 VCs: most layers stay empty, routing still
     valid. *)
  let table = Nue.route ~vcs:16 net in
  Helpers.check_table_valid "nue/k=16" table

let nue_subset_of_destinations () =
  let net = Helpers.random_net () in
  let terms = Network.terminals net in
  let dests = Array.sub terms 0 (Array.length terms / 2) in
  let table = Nue.route ~dests ~vcs:2 net in
  let r = Verify.check table in
  Alcotest.(check bool) "connected to routed dests" true r.Verify.connected;
  Alcotest.(check bool) "deadlock-free" true r.Verify.deadlock_free;
  Alcotest.(check int) "routed dest count" (Array.length dests)
    (Array.length table.Table.dests)

let nue_two_node_network () =
  (* Degenerate: one switch, two terminals. *)
  let b = Network.Builder.create () in
  let s = Network.Builder.add_switch b in
  let t1 = Network.Builder.add_terminal b in
  let t2 = Network.Builder.add_terminal b in
  Network.Builder.connect b t1 s;
  Network.Builder.connect b t2 s;
  let net = Network.Builder.build b in
  let table = Nue.route ~vcs:1 net in
  Helpers.check_table_valid "nue/2-terminals" table

let nue_invalid_vcs () =
  let net = Helpers.ring5 () in
  Alcotest.(check bool) "vcs=0 rejected" true
    (match Nue.route ~vcs:0 net with
     | exception Invalid_argument _ -> true
     | _ -> false)

let nue_handles_multigraph_redundancy () =
  let torus =
    Topology.torus3d ~dims:(3, 3, 3) ~terminals_per_switch:1 ~redundancy:3 ()
  in
  let table = Nue.route ~vcs:2 torus.Topology.net in
  Helpers.check_table_valid "nue/redundant-torus" table

(* {1 Layers with switch sources} *)

let layers_vl_covers_all_nodes () =
  let net = (Helpers.small_torus ()).Topology.net in
  let table = Minhop.route net in
  let { Layers.vl; layers_used } =
    Layers.assign net ~dests:table.Table.dests
      ~next_channel:table.Table.next_channel
      ~sources:(Network.terminals net)
  in
  Alcotest.(check int) "vl rows per dest" (Array.length table.Table.dests)
    (Array.length vl);
  Array.iter
    (fun per_node ->
       Alcotest.(check int) "vl per node" (Network.num_nodes net)
         (Array.length per_node);
       Array.iter
         (fun l ->
            if l < 0 || l >= layers_used then Alcotest.fail "layer range")
         per_node)
    vl

(* {1 Torus-2QoS VL economy} *)

let torus2qos_intact_uses_two_vls () =
  let torus = Topology.torus3d ~dims:(4, 4, 3) ~terminals_per_switch:1 () in
  let remap = Fault.identity torus.Topology.net in
  match Nue_routing.Torus2qos.route_structured ~torus ~remap () with
  | Error e -> Alcotest.fail (Nue_routing.Engine_error.to_string e)
  | Ok table ->
    (* No faults, no reordering: dateline scheme only. *)
    Alcotest.(check int) "2 VLs" 2 table.Table.num_vls;
    Alcotest.(check bool) "uses both lanes" true (Verify.vls_used table = 2)

(* {1 Simulator details} *)

let sim_latency_configurable () =
  let b = Network.Builder.create () in
  let s = Network.Builder.add_switch b in
  let t1 = Network.Builder.add_terminal b in
  let t2 = Network.Builder.add_terminal b in
  Network.Builder.connect b t1 s;
  Network.Builder.connect b t2 s;
  let net = Network.Builder.build b in
  let table = Minhop.route net in
  let terms = Network.terminals net in
  let run latency =
    let config = { Sim.default_config with link_latency = latency } in
    (Sim.run ~config table
       ~traffic:[ { Traffic.src = terms.(0); dst = terms.(1); bytes = 64 } ])
      .Sim.cycles
  in
  Alcotest.(check bool) "higher latency, more cycles" true (run 8 > run 1)

let sim_tiny_buffers_still_complete () =
  let net = Helpers.line 4 in
  let table = Minhop.route net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:1024 in
  let config = { Sim.default_config with buffer_flits = 1 } in
  let out = Sim.run ~config table ~traffic in
  Alcotest.(check int) "all delivered" out.Sim.total_packets
    out.Sim.delivered_packets;
  Alcotest.(check bool) "no deadlock on a tree" false out.Sim.deadlock

let sim_bytes_conserved () =
  let net = (Helpers.small_torus ()).Topology.net in
  let table = Nue.route ~vcs:1 net in
  let prng = Prng.create 9 in
  let traffic =
    Traffic.uniform_random prng net ~messages_per_terminal:3 ~message_bytes:777
  in
  let out = Sim.run table ~traffic in
  let sent = List.fold_left (fun a m -> a + m.Traffic.bytes) 0 traffic in
  Alcotest.(check int) "bytes conserved" sent out.Sim.delivered_bytes

let sim_zero_traffic () =
  let net = Helpers.line 3 in
  let table = Minhop.route net in
  let out = Sim.run table ~traffic:[] in
  Alcotest.(check int) "nothing to deliver" 0 out.Sim.total_packets;
  Alcotest.(check bool) "no deadlock" false out.Sim.deadlock

(* {1 Escape/CDG interaction} *)

let escape_full_destination_set () =
  (* Escape paths for all terminals of a torus: count dependencies and
     confirm acyclicity of the used subgraph. *)
  let net = (Helpers.small_torus ()).Topology.net in
  let cdg = Complete_cdg.create net in
  let escape =
    Nue_core.Escape.prepare cdg ~root:0 ~dests:(Network.terminals net)
  in
  Alcotest.(check bool) "many dependencies" true
    (Nue_core.Escape.initial_dependencies escape > 50);
  Alcotest.(check bool) "acyclic" true (Complete_cdg.used_subgraph_acyclic cdg)

let cdg_counts_on_torus () =
  let net = (Helpers.small_torus ()).Topology.net in
  let cdg = Complete_cdg.create net in
  Alcotest.(check int) "vertices = channels" (Network.num_channels net)
    (Complete_cdg.num_channels cdg);
  (* |E| = sum over channels of (deg(head) - parallel-back). Just check
     the bound |E| <= Delta * |C|. *)
  Alcotest.(check bool) "edge bound" true
    (Complete_cdg.num_edges cdg
     <= Network.max_degree net * Network.num_channels net)

(* {1 Fault edge cases} *)

let fault_remove_terminal_rejected () =
  let net = Helpers.ring5 () in
  (* A terminal, and ids outside the network, are not switches. *)
  List.iter
    (fun s ->
       Alcotest.check_raises "not a switch"
         (Invalid_argument "Fault.remove_switches: node is not a switch")
         (fun () -> ignore (Fault.remove_switches net [ s ])))
    [ (Network.terminals net).(0); -1; Network.num_nodes net ]

let fault_disconnecting_removal_rejected () =
  let net = Helpers.line 3 in
  (* Removing the middle switch of a line disconnects the ends. *)
  Alcotest.(check bool) "disconnection rejected" true
    (match Fault.remove_switches net [ 1 ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* {1 Topology parameter validation} *)

let topology_invalid_parameters () =
  let prng = Prng.create 1 in
  Alcotest.(check bool) "too few links" true
    (match
       Topology.random prng ~switches:10 ~inter_switch_links:5
         ~terminals_per_switch:1 ()
     with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "1-wide torus" true
    (match Topology.torus3d ~dims:(1, 3, 3) ~terminals_per_switch:1 () with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "dragonfly without enough global ports" true
    (match Topology.dragonfly ~a:2 ~p:1 ~h:1 ~g:10 () with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* {1 Partition k-way on structured graphs} *)

let partition_kway_cuts_torus_cleanly () =
  (* On a torus, k-way partitioning should produce connected-ish blocks;
     at minimum, the cut is better than random's. *)
  let torus = Topology.torus3d ~dims:(4, 4, 4) ~terminals_per_switch:2 () in
  let net = torus.Topology.net in
  let dests = Network.terminals net in
  let cut strategy =
    let parts =
      Nue_core.Partition.partition ~strategy
        ~prng:(Prng.create 3) net ~dests ~k:4
    in
    let part_of = Array.make (Network.num_nodes net) (-1) in
    Array.iteri
      (fun p ds ->
         Array.iter
           (fun d ->
              part_of.(Network.terminal_attachment net d) <- p)
           ds)
      parts;
    (* Count inter-switch links crossing parts. *)
    let crossings = ref 0 in
    Array.iter
      (fun (u, v) ->
         if
           Network.is_switch net u && Network.is_switch net v
           && part_of.(u) >= 0 && part_of.(v) >= 0
           && part_of.(u) <> part_of.(v)
         then incr crossings)
      (Network.duplex_pairs net);
    !crossings
  in
  Alcotest.(check bool) "kway cut <= random cut" true
    (cut Nue_core.Partition.Kway <= cut Nue_core.Partition.Random)

let suite =
  [ ("extra:graph",
     [ test_case "dag counts on ring" `Quick dag_counts_ring;
       test_case "dag counts on multigraph" `Quick dag_counts_multigraph ]);
    ("extra:verify",
     [ test_case "vls_used per scheme" `Quick vls_used_per_scheme ]);
    ("extra:nue",
     [ test_case "more VCs than destinations" `Quick nue_more_vcs_than_dests;
       test_case "subset of destinations" `Quick nue_subset_of_destinations;
       test_case "two-node network" `Quick nue_two_node_network;
       test_case "invalid vcs" `Quick nue_invalid_vcs;
       test_case "redundant multigraph torus" `Quick
         nue_handles_multigraph_redundancy ]);
    ("extra:layers",
     [ test_case "vl covers all nodes" `Quick layers_vl_covers_all_nodes ]);
    ("extra:torus2qos",
     [ test_case "intact torus uses 2 VLs" `Quick torus2qos_intact_uses_two_vls ]);
    ("extra:sim",
     [ test_case "latency configurable" `Quick sim_latency_configurable;
       test_case "tiny buffers complete" `Quick sim_tiny_buffers_still_complete;
       test_case "bytes conserved" `Quick sim_bytes_conserved;
       test_case "zero traffic" `Quick sim_zero_traffic ]);
    ("extra:escape",
     [ test_case "full destination set" `Quick escape_full_destination_set;
       test_case "cdg counts on torus" `Quick cdg_counts_on_torus ]);
    ("extra:fault",
     [ test_case "terminal removal rejected" `Quick fault_remove_terminal_rejected;
       test_case "disconnection rejected" `Quick
         fault_disconnecting_removal_rejected ]);
    ("extra:topology",
     [ test_case "invalid parameters" `Quick topology_invalid_parameters ]);
    ("extra:partition",
     [ test_case "kway cut quality on torus" `Quick
         partition_kway_cuts_torus_cleanly ]) ]
