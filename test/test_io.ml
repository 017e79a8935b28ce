(* Tests for serialization, LFT dumps, the static-CDG baseline, the new
   topology generators and the extra traffic patterns. *)

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Serialize = Nue_netgraph.Serialize
module Graph_algo = Nue_netgraph.Graph_algo
module Table = Nue_routing.Table
module Verify = Nue_routing.Verify
module Lft = Nue_routing.Lft
module Static_cdg = Nue_routing.Static_cdg
module Minhop = Nue_routing.Minhop
module Traffic = Nue_sim.Traffic
module Sim = Nue_sim.Sim
module Prng = Nue_structures.Prng

let test_case = Alcotest.test_case

(* {1 Serialize} *)

let roundtrip_preserves_structure () =
  let net = Helpers.ring5 () in
  let net' = Serialize.of_string (Serialize.to_string net) in
  Alcotest.(check string) "name" (Network.name net) (Network.name net');
  Alcotest.(check int) "nodes" (Network.num_nodes net) (Network.num_nodes net');
  Alcotest.(check int) "channels" (Network.num_channels net)
    (Network.num_channels net');
  for n = 0 to Network.num_nodes net - 1 do
    Alcotest.(check bool) "kind" (Network.is_switch net n)
      (Network.is_switch net' n)
  done;
  Alcotest.(check bool) "same links" true
    (Network.duplex_pairs net = Network.duplex_pairs net')

let roundtrip_multigraph () =
  let b = Network.Builder.create ~name:"multi" () in
  let s0 = Network.Builder.add_switch b in
  let s1 = Network.Builder.add_switch b in
  Network.Builder.connect b s0 s1;
  Network.Builder.connect b s0 s1;
  let net = Network.Builder.build b in
  let net' = Serialize.of_string (Serialize.to_string net) in
  Alcotest.(check int) "parallel links preserved" 4 (Network.num_channels net')

let parse_with_comments () =
  let text =
    "# a tiny fabric\nnetwork tiny\nswitch 0\nswitch 1 # core\n\
     terminal 2\nterminal 3\n\nlink 0 1\nlink 2 0\nlink 3 1\n"
  in
  let net = Serialize.of_string text in
  Alcotest.(check int) "switches" 2 (Network.num_switches net);
  Alcotest.(check int) "terminals" 2 (Network.num_terminals net);
  Alcotest.(check bool) "connected" true (Graph_algo.is_connected net)

let parse_errors () =
  let cases =
    [ "switch 0\nswitch 0\n";        (* duplicate *)
      "switch 0\nswitch 2\n";        (* non-dense *)
      "gizmo 4\n";                   (* unknown keyword *)
      "switch 0\nlink 0 zero\n" ]    (* bad id *)
  in
  List.iter
    (fun text ->
       Alcotest.(check bool) "rejected" true
         (match Serialize.of_string text with
          | exception Invalid_argument _ -> true
          | _ -> false))
    cases

let file_roundtrip () =
  let net = Helpers.random_net () in
  let path = Filename.temp_file "nue" ".net" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Serialize.write_file path net;
       let net' = Serialize.read_file path in
       Alcotest.(check int) "channels" (Network.num_channels net)
         (Network.num_channels net'))

let dot_output_wellformed () =
  let net = Helpers.ring5 () in
  let dot = Serialize.to_dot ~channel_labels:true net in
  Alcotest.(check bool) "graph header" true
    (String.length dot > 0 && String.sub dot 0 5 = "graph");
  (* One node statement per node, one edge per duplex link. *)
  let count_sub sub =
    let n = ref 0 in
    let sl = String.length sub in
    for i = 0 to String.length dot - sl do
      if String.sub dot i sl = sub then incr n
    done;
    !n
  in
  Alcotest.(check int) "edges" (Network.num_channels net / 2) (count_sub " -- ")

(* {1 Lft} *)

let lft_dump_mentions_all_dests () =
  let net = Helpers.line 3 in
  let table = Minhop.route net in
  let dump = Lft.dump ~switches:[| 1 |] table in
  Array.iter
    (fun d ->
       let needle = Printf.sprintf "dest %5d" d in
       Alcotest.(check bool) "dest present" true
         (let sl = String.length needle in
          let found = ref false in
          for i = 0 to String.length dump - sl do
            if String.sub dump i sl = needle then found := true
          done;
          !found))
    table.Table.dests

let lft_ports_valid () =
  let net = Helpers.random_net () in
  let table = Minhop.route net in
  Array.iter
    (fun sw ->
       Array.iter
         (fun dest ->
            if dest <> sw then begin
              let c = Table.next table ~node:sw ~dest in
              let port = Lft.port_of_channel net c in
              Alcotest.(check bool) "port in range" true
                (port >= 0 && port < Network.degree net sw);
              Alcotest.(check int) "port resolves back" c
                (Network.out_channels net sw).(port)
            end)
         table.Table.dests)
    (Network.switches net)

let lft_path_dump () =
  let net = Helpers.line 3 in
  let table = Minhop.route net in
  let terms = Network.terminals net in
  let s =
    Lft.dump_paths ~sources:[| terms.(0) |] ~dests:[| terms.(2) |] table
  in
  Alcotest.(check bool) "contains arrow" true
    (String.length s > 0
     && (let found = ref false in
         for i = 0 to String.length s - 4 do
           if String.sub s i 4 = "-[vl" then found := true
         done;
         !found))

(* {1 Static_cdg baseline} *)

let static_cdg_deadlock_free_but_lossy () =
  (* On a sizable torus the a-priori restriction strands pairs — the
     impasse problem of Section 3. *)
  let t = Topology.torus3d ~dims:(4, 4, 4) ~terminals_per_switch:1 () in
  let table = Static_cdg.route ~seed:3 t.Topology.net in
  let r = Verify.check table in
  Alcotest.(check bool) "deadlock-free by construction" true
    (Verify.deadlock_free table);
  Alcotest.(check bool) "cycle-free" true r.Verify.cycle_free;
  Alcotest.(check bool) "some pairs stranded" true (r.Verify.unreachable_pairs > 0)

let static_cdg_contrast_with_nue () =
  (* Same network: the static restriction strands pairs even on simple
     topologies (a forbidden dependency can sit on the only path), while
     Nue's incremental restriction placement plus escape paths never
     strands anything. *)
  let net = Helpers.line 5 in
  let r = Verify.check (Static_cdg.route net) in
  Alcotest.(check bool) "static strands pairs even on a line" true
    (r.Verify.unreachable_pairs > 0);
  let nue = Nue_core.Nue.route ~vcs:1 net in
  Alcotest.(check bool) "nue strands nothing" true (Verify.connected nue)

(* {1 New topology generators} *)

let grid_mesh_structure () =
  let g = Topology.mesh ~dims:[| 3; 4 |] ~terminals_per_switch:1 () in
  Alcotest.(check int) "switches" 12 (Network.num_switches g.Topology.gnet);
  (* Mesh links: 2*4*... (3-1)*4 + 3*(4-1) = 8 + 9 = 17. *)
  let isl =
    (Network.num_channels g.Topology.gnet / 2)
    - Network.num_terminals g.Topology.gnet
  in
  Alcotest.(check int) "links" 17 isl;
  (* Coordinate round trip. *)
  Array.iter
    (fun s ->
       let c = g.Topology.gcoord_of_switch s in
       Alcotest.(check int) "roundtrip" s (g.Topology.switch_of_gcoord c))
    (Network.switches g.Topology.gnet)

let grid_torus_nd_matches_torus3d () =
  let a = Topology.torus_nd ~dims:[| 4; 4; 3 |] ~terminals_per_switch:2 () in
  let b = Topology.torus3d ~dims:(4, 4, 3) ~terminals_per_switch:2 () in
  Alcotest.(check int) "same channels"
    (Network.num_channels b.Topology.net)
    (Network.num_channels a.Topology.gnet)

let hypercube_structure () =
  let net = Topology.hypercube ~dim:4 ~terminals_per_switch:1 () in
  Alcotest.(check int) "16 switches" 16 (Network.num_switches net);
  Array.iter
    (fun s ->
       Alcotest.(check int) "degree 4+1" 5 (Network.degree net s))
    (Network.switches net);
  Alcotest.(check bool) "connected" true (Graph_algo.is_connected net)

let fully_connected_structure () =
  let net = Topology.fully_connected ~switches:6 ~terminals_per_switch:2 () in
  let isl = (Network.num_channels net / 2) - Network.num_terminals net in
  Alcotest.(check int) "15 links" 15 isl

let nue_on_new_topologies () =
  List.iter
    (fun (name, net) ->
       Helpers.check_table_valid ("nue/" ^ name) (Nue_core.Nue.route ~vcs:1 net))
    [ ("mesh", (Topology.mesh ~dims:[| 4; 4 |] ~terminals_per_switch:1 ()).Topology.gnet);
      ("torus4d",
       (Topology.torus_nd ~dims:[| 3; 3; 3; 3 |] ~terminals_per_switch:1 ()).Topology.gnet);
      ("hypercube", Topology.hypercube ~dim:4 ~terminals_per_switch:1 ());
      ("full", Topology.fully_connected ~switches:8 ~terminals_per_switch:2 ()) ]

(* {1 Traffic patterns} *)

let tornado_shape () =
  let net = (Helpers.small_torus ()).Topology.net in
  let msgs = Traffic.tornado net ~message_bytes:64 in
  let t = Network.num_terminals net in
  Alcotest.(check int) "one per terminal" t (List.length msgs);
  List.iter
    (fun { Traffic.src; dst; _ } ->
       if src = dst then Alcotest.fail "self message")
    msgs

let transpose_involution () =
  let net = (Helpers.small_torus ()).Topology.net in
  let msgs = Traffic.transpose net ~message_bytes:64 in
  (* Transpose pairs are symmetric: if i sends to j then j sends to i. *)
  let tbl = Hashtbl.create 64 in
  List.iter (fun { Traffic.src; dst; _ } -> Hashtbl.replace tbl (src, dst) ()) msgs;
  List.iter
    (fun { Traffic.src; dst; _ } ->
       Alcotest.(check bool) "symmetric" true (Hashtbl.mem tbl (dst, src)))
    msgs

let bit_reverse_involution () =
  let net = (Helpers.small_torus ()).Topology.net in
  let msgs = Traffic.bit_reverse net ~message_bytes:64 in
  let tbl = Hashtbl.create 64 in
  List.iter (fun { Traffic.src; dst; _ } -> Hashtbl.replace tbl (src, dst) ()) msgs;
  Alcotest.(check bool) "non-empty" true (msgs <> []);
  List.iter
    (fun { Traffic.src; dst; _ } ->
       Alcotest.(check bool) "symmetric" true (Hashtbl.mem tbl (dst, src)))
    msgs

let hotspot_concentration () =
  let net = (Helpers.small_torus ()).Topology.net in
  let prng = Prng.create 8 in
  let msgs =
    Traffic.hotspot prng net ~hot_fraction:0.8 ~messages_per_terminal:10
      ~message_bytes:64
  in
  (* Find the most popular destination; with hot_fraction 0.8 it should
     absorb well over half the messages. *)
  let counts = Hashtbl.create 64 in
  List.iter
    (fun { Traffic.dst; _ } ->
       Hashtbl.replace counts dst
         (1 + Option.value ~default:0 (Hashtbl.find_opt counts dst)))
    msgs;
  let best = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  Alcotest.(check bool) "hot terminal dominates" true
    (float_of_int best > 0.5 *. float_of_int (List.length msgs))

let latency_percentiles_ordered () =
  let net = (Helpers.small_torus ()).Topology.net in
  let table = Nue_core.Nue.route ~vcs:2 net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:512 in
  let out = Sim.run table ~traffic in
  Alcotest.(check bool) "p50 <= p99" true
    (out.Sim.latency_p50 <= out.Sim.latency_p99);
  Alcotest.(check bool) "avg between min-ish and p99" true
    (out.Sim.avg_packet_latency <= out.Sim.latency_p99);
  Alcotest.(check bool) "positive" true (out.Sim.latency_p50 > 0.0)

let suite =
  [ ("serialize",
     [ test_case "roundtrip" `Quick roundtrip_preserves_structure;
       test_case "multigraph roundtrip" `Quick roundtrip_multigraph;
       test_case "comments and blanks" `Quick parse_with_comments;
       test_case "parse errors" `Quick parse_errors;
       test_case "file roundtrip" `Quick file_roundtrip;
       test_case "dot output" `Quick dot_output_wellformed ]);
    ("lft",
     [ test_case "dump mentions all dests" `Quick lft_dump_mentions_all_dests;
       test_case "ports valid" `Quick lft_ports_valid;
       test_case "path dump" `Quick lft_path_dump ]);
    ("static_cdg",
     [ test_case "deadlock-free but lossy" `Quick
         static_cdg_deadlock_free_but_lossy;
       test_case "contrast with nue" `Quick static_cdg_contrast_with_nue ]);
    ("topology2",
     [ test_case "mesh structure" `Quick grid_mesh_structure;
       test_case "torus_nd matches torus3d" `Quick grid_torus_nd_matches_torus3d;
       test_case "hypercube" `Quick hypercube_structure;
       test_case "fully connected" `Quick fully_connected_structure;
       test_case "nue on new topologies" `Quick nue_on_new_topologies ]);
    ("traffic2",
     [ test_case "tornado" `Quick tornado_shape;
       test_case "transpose involution" `Quick transpose_involution;
       test_case "bit reverse involution" `Quick bit_reverse_involution;
       test_case "hotspot concentration" `Quick hotspot_concentration;
       test_case "latency percentiles" `Quick latency_percentiles_ordered ]) ]
