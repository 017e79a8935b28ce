(* Tests for lib/netgraph: network representation, traversals, Brandes
   and its convex subgraphs, topology generators and fault injection. *)

module Network = Nue_netgraph.Network
module Graph_algo = Nue_netgraph.Graph_algo
module Brandes = Nue_netgraph.Brandes
module Topology = Nue_netgraph.Topology
module Fault = Nue_netgraph.Fault
module Prng = Nue_structures.Prng

let test_case = Alcotest.test_case

(* {1 Network} *)

let build_basics () =
  let net = Helpers.ring5 () in
  Alcotest.(check int) "switches" 5 (Network.num_switches net);
  Alcotest.(check int) "terminals" 5 (Network.num_terminals net);
  (* 5 ring + 1 shortcut + 5 terminal links = 11 duplex = 22 channels. *)
  Alcotest.(check int) "channels" 22 (Network.num_channels net)

let channel_reverse_involution () =
  let net = Helpers.ring5 () in
  for c = 0 to Network.num_channels net - 1 do
    let r = Network.rev net c in
    Alcotest.(check int) "rev involutive" c (Network.rev net r);
    Alcotest.(check int) "rev src" (Network.src net c) (Network.dst net r);
    Alcotest.(check int) "rev dst" (Network.dst net c) (Network.src net r)
  done

let adjacency_consistency () =
  let net = Helpers.random_net () in
  for n = 0 to Network.num_nodes net - 1 do
    Array.iter
      (fun c ->
         Alcotest.(check int) "out src" n (Network.src net c))
      (Network.out_channels net n);
    Array.iter
      (fun c ->
         Alcotest.(check int) "in dst" n (Network.dst net c))
      (Network.in_channels net n)
  done

let terminal_validation () =
  let b = Network.Builder.create () in
  let s = Network.Builder.add_switch b in
  let t = Network.Builder.add_terminal b in
  Network.Builder.connect b t s;
  Network.Builder.connect b t s;
  Alcotest.(check bool) "terminal with 2 links rejected" true
    (match Network.Builder.build b with
     | exception Invalid_argument _ -> true
     | _ -> false)

let self_loop_rejected () =
  let b = Network.Builder.create () in
  let s = Network.Builder.add_switch b in
  Alcotest.(check bool) "self loop rejected" true
    (match Network.Builder.connect b s s with
     | exception Invalid_argument _ -> true
     | _ -> false)

let terminal_attachment () =
  let net = Helpers.ring5 () in
  Array.iter
    (fun t ->
       let s = Network.terminal_attachment net t in
       Alcotest.(check bool) "attached to switch" true (Network.is_switch net s))
    (Network.terminals net)

let multigraph_parallel_links () =
  let b = Network.Builder.create () in
  let s1 = Network.Builder.add_switch b in
  let s2 = Network.Builder.add_switch b in
  Network.Builder.connect b s1 s2;
  Network.Builder.connect b s1 s2;
  let net = Network.Builder.build b in
  Alcotest.(check int) "4 directed channels" 4 (Network.num_channels net);
  Alcotest.(check int) "degree 2" 2 (Network.degree net s1)

let find_channel_works () =
  let net = Helpers.ring5 () in
  (match Network.find_channel net 0 1 with
   | Some c ->
     Alcotest.(check int) "src" 0 (Network.src net c);
     Alcotest.(check int) "dst" 1 (Network.dst net c)
   | None -> Alcotest.fail "expected channel 0->1");
  Alcotest.(check (option int)) "no channel 0->3" None
    (Network.find_channel net 0 3)

(* {1 Graph_algo} *)

let bfs_ring_distances () =
  let net = Helpers.ring5 ~with_terminals:false () in
  let d = Graph_algo.bfs_distances net 0 in
  (* ring 0-1-2-3-4 with shortcut 2-4. *)
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 2; 1 |] d

let connectivity () =
  Alcotest.(check bool) "ring connected" true
    (Graph_algo.is_connected (Helpers.ring5 ()));
  let b = Network.Builder.create () in
  let _ = Network.Builder.add_switch b in
  let _ = Network.Builder.add_switch b in
  let net = Network.Builder.build b in
  Alcotest.(check bool) "two isolated switches" false
    (Graph_algo.is_connected net)

let components_labels () =
  let b = Network.Builder.create () in
  let s = Array.init 4 (fun _ -> Network.Builder.add_switch b) in
  Network.Builder.connect b s.(0) s.(1);
  Network.Builder.connect b s.(2) s.(3);
  let net = Network.Builder.build b in
  let comp = Graph_algo.components net in
  Alcotest.(check bool) "0,1 same" true (comp.(0) = comp.(1));
  Alcotest.(check bool) "2,3 same" true (comp.(2) = comp.(3));
  Alcotest.(check bool) "0,2 differ" true (comp.(0) <> comp.(2))

let dijkstra_matches_bfs_on_unit_weights () =
  let net = Helpers.random_net () in
  let weights = Array.make (Network.num_channels net) 1.0 in
  let dest = (Network.terminals net).(0) in
  let nexts, dist = Graph_algo.dijkstra_to_dest net ~weights ~dest in
  let bfs = Graph_algo.bfs_distances net dest in
  for n = 0 to Network.num_nodes net - 1 do
    Alcotest.(check (float 1e-9))
      "distance = hop count" (float_of_int bfs.(n)) dist.(n)
  done;
  (* Every next-channel chain reaches the destination. *)
  for n = 0 to Network.num_nodes net - 1 do
    if n <> dest then
      match Graph_algo.path_of_next net ~next:nexts ~src:n with
      | Some path ->
        Alcotest.(check int) "path length = dist" bfs.(n) (List.length path)
      | None -> Alcotest.fail "dead end"
  done

let dijkstra_respects_weights () =
  (* Triangle where the direct channel is expensive. *)
  let b = Network.Builder.create () in
  let s = Array.init 3 (fun _ -> Network.Builder.add_switch b) in
  Network.Builder.connect b s.(0) s.(1); (* channels 0,1 *)
  Network.Builder.connect b s.(1) s.(2); (* channels 2,3 *)
  Network.Builder.connect b s.(0) s.(2); (* channels 4,5 *)
  let net = Network.Builder.build b in
  let weights = Array.make 6 1.0 in
  weights.(4) <- 10.0;
  (* 0 -> 2 directly costs 10; via 1 costs 2. *)
  let nexts, dist = Graph_algo.dijkstra_to_dest net ~weights ~dest:2 in
  Alcotest.(check (float 1e-9)) "cost via middle" 2.0 dist.(0);
  Alcotest.(check int) "first hop toward 1" 1
    (Network.dst net nexts.(0));
  (* Uneven integer weights on a random fabric, against Bellman-Ford:
     equal distances, and the next hop is the smallest channel id among
     the equal-cost ones, whatever order the heap popped in. *)
  let net = Helpers.random_net ~seed:19 () in
  let weights =
    Array.init (Network.num_channels net) (fun c ->
        1.0 +. float_of_int (c mod 7))
  in
  let dest = (Network.terminals net).(0) in
  let nexts, dist = Graph_algo.dijkstra_to_dest net ~weights ~dest in
  let nn = Network.num_nodes net in
  let ref_dist = Array.make nn infinity in
  ref_dist.(dest) <- 0.0;
  let changed = ref true in
  while !changed do
    changed := false;
    for c = 0 to Network.num_channels net - 1 do
      let v = Network.src net c and u = Network.dst net c in
      if ref_dist.(u) +. weights.(c) < ref_dist.(v) then begin
        ref_dist.(v) <- ref_dist.(u) +. weights.(c);
        changed := true
      end
    done
  done;
  for v = 0 to nn - 1 do
    Alcotest.(check (float 0.0)) "distance = Bellman-Ford"
      ref_dist.(v) dist.(v);
    let best = ref (-1) in
    for c = Network.num_channels net - 1 downto 0 do
      if v <> dest && Network.src net c = v
         && ref_dist.(Network.dst net c) +. weights.(c) = ref_dist.(v)
      then best := c
    done;
    Alcotest.(check int) "smallest equal-cost next hop" !best nexts.(v)
  done

let spanning_tree_properties () =
  let net = Helpers.random_net () in
  let tree = Graph_algo.spanning_tree net ~root:0 in
  let n = Network.num_nodes net in
  (* Exactly n-1 tree links (2(n-1) directed channels flagged). *)
  let flagged = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 tree.Graph_algo.tree_channel in
  Alcotest.(check int) "tree channels" (2 * (n - 1)) flagged;
  Alcotest.(check int) "root has no parent" (-1)
    tree.Graph_algo.parent_channel.(0);
  (* Parent pointers climb to the root, and BFS-tree depth equals the
     network hop distance. *)
  let dist = Graph_algo.bfs_distances net 0 in
  for v = 1 to n - 1 do
    let rec depth x acc =
      if x = 0 then acc
      else depth (Network.dst net tree.Graph_algo.parent_channel.(x)) (acc + 1)
    in
    Alcotest.(check int) "depth = distance" dist.(v) (depth v 0)
  done

let tree_routing_reaches_dest () =
  let net = Helpers.random_net () in
  let tree = Graph_algo.spanning_tree net ~root:0 in
  let dest = (Network.terminals net).(1) in
  let next = Graph_algo.tree_next_channel net tree ~dest in
  for n = 0 to Network.num_nodes net - 1 do
    if n <> dest then
      match Graph_algo.path_of_next net ~next ~src:n with
      | Some path ->
        (match List.rev path with
         | last :: _ ->
           Alcotest.(check int) "ends at dest" dest (Network.dst net last)
         | [] -> Alcotest.fail "empty path")
      | None -> Alcotest.fail "tree routing dead end"
  done

let path_of_next_detects_loop () =
  let net = Helpers.ring5 ~with_terminals:false () in
  (* Every node forwards clockwise forever. *)
  let next = Array.make (Network.num_nodes net) (-1) in
  for i = 0 to 4 do
    match Network.find_channel net i ((i + 1) mod 5) with
    | Some c -> next.(i) <- c
    | None -> Alcotest.fail "missing ring channel"
  done;
  Alcotest.(check bool) "loop detected" true
    (Graph_algo.path_of_next net ~next ~src:0 = None)

(* {1 Brandes} *)

let brandes_line_graph () =
  (* Line of 5 switches: centrality of the middle is highest. *)
  let net = Helpers.line 5 in
  let members = Network.switches net in
  let cb, _ = Brandes.centrality ~members net in
  Alcotest.(check bool) "middle beats edge" true (cb.(2) > cb.(0));
  Alcotest.(check bool) "middle beats off-middle" true (cb.(2) > cb.(1));
  Alcotest.(check int) "most central is middle" 2
    (Brandes.most_central ~members net)

let brandes_star_center () =
  let b = Network.Builder.create () in
  let hub = Network.Builder.add_switch b in
  for _ = 1 to 5 do
    let leaf = Network.Builder.add_switch b in
    Network.Builder.connect b hub leaf
  done;
  let net = Network.Builder.build b in
  Alcotest.(check int) "hub most central" hub (Brandes.most_central net)

let brandes_members_restriction () =
  (* Line 0-1-2-3-4 with members {0, 4}: only the one path counts, so
     every interior node has centrality 2 (both directions). *)
  let net = Helpers.line 5 in
  let cb, _ = Brandes.centrality ~members:[| 0; 4 |] net in
  Alcotest.(check (float 1e-9)) "interior" 2.0 cb.(2);
  Alcotest.(check (float 1e-9)) "endpoint" 0.0 cb.(0)

let brandes_known_value () =
  (* 4-cycle: two shortest paths between opposite corners; each
     intermediate node carries half of each of the 2 opposite pairs
     (ordered: x2). C_B = 2 * (1/2) * 2 / 2 ... check by symmetry all
     equal instead. *)
  let net = Helpers.ring ~terminals:0 4 in
  let cb, _ = Brandes.centrality net in
  Alcotest.(check (float 1e-9)) "symmetric" cb.(0) cb.(1);
  Alcotest.(check (float 1e-9)) "symmetric2" cb.(1) cb.(2);
  Alcotest.(check bool) "positive" true (cb.(0) > 0.0)

(* {1 Convex subgraph} *)

let hull net members = snd (Brandes.centrality ~members net)

let convex_line_interval () =
  let net = Helpers.line 6 in
  let sw = Network.switches net in
  (* Members 1 and 4: convex hull on a line is the interval [1,4]. *)
  let mask = hull net [| sw.(1); sw.(4) |] in
  Alcotest.(check bool) "1 in" true mask.(sw.(1));
  Alcotest.(check bool) "2 in" true mask.(sw.(2));
  Alcotest.(check bool) "3 in" true mask.(sw.(3));
  Alcotest.(check bool) "4 in" true mask.(sw.(4));
  Alcotest.(check bool) "0 out" false mask.(sw.(0));
  Alcotest.(check bool) "5 out" false mask.(sw.(5))

let convex_ring_both_sides () =
  (* On an even ring, opposite members include the whole ring (two
     equal-length shortest paths). *)
  let net = Helpers.ring ~terminals:0 6 in
  let mask = hull net [| 0; 3 |] in
  for i = 0 to 5 do
    Alcotest.(check bool) (Printf.sprintf "node %d" i) true mask.(i)
  done

let convex_contains_members () =
  let net = Helpers.random_net () in
  let terms = Network.terminals net in
  let members = Array.sub terms 0 5 in
  let mask = hull net members in
  Array.iter
    (fun m -> Alcotest.(check bool) "member inside" true mask.(m))
    members

(* {1 Topology generators: Table 1 configurations} *)

let table1_counts () =
  let isl net = (Network.num_channels net / 2) - Network.num_terminals net in
  let prng = Prng.create 42 in
  let rand =
    Topology.random prng ~switches:125 ~inter_switch_links:1000
      ~terminals_per_switch:8 ()
  in
  Alcotest.(check int) "random switches" 125 (Network.num_switches rand);
  Alcotest.(check int) "random terminals" 1000 (Network.num_terminals rand);
  Alcotest.(check int) "random channels" 1000 (isl rand);
  let torus =
    (Topology.torus3d ~dims:(6, 5, 5) ~terminals_per_switch:7 ~redundancy:4 ())
      .Topology.net
  in
  Alcotest.(check int) "torus switches" 150 (Network.num_switches torus);
  Alcotest.(check int) "torus terminals" 1050 (Network.num_terminals torus);
  Alcotest.(check int) "torus channels" 1800 (isl torus);
  let tree = Topology.kary_ntree ~k:10 ~n:3 ~terminals_per_leaf:11 () in
  Alcotest.(check int) "tree switches" 300 (Network.num_switches tree);
  Alcotest.(check int) "tree terminals" 1100 (Network.num_terminals tree);
  Alcotest.(check int) "tree channels" 2000 (isl tree);
  let kautz =
    Topology.kautz ~degree:5 ~diameter:3 ~terminals_per_switch:7 ~redundancy:2
      ()
  in
  Alcotest.(check int) "kautz switches" 150 (Network.num_switches kautz);
  Alcotest.(check int) "kautz terminals" 1050 (Network.num_terminals kautz);
  Alcotest.(check int) "kautz channels" 1500 (isl kautz);
  let df = Topology.dragonfly ~a:12 ~p:6 ~h:6 ~g:15 () in
  Alcotest.(check int) "dragonfly switches" 180 (Network.num_switches df);
  Alcotest.(check int) "dragonfly terminals" 1080 (Network.num_terminals df);
  Alcotest.(check int) "dragonfly channels" 1515 (isl df);
  let casc = Topology.cascade () in
  Alcotest.(check int) "cascade switches" 192 (Network.num_switches casc);
  Alcotest.(check int) "cascade terminals" 1536 (Network.num_terminals casc);
  Alcotest.(check int) "cascade channels" 3072 (isl casc);
  let ts = Topology.tsubame25 () in
  Alcotest.(check int) "tsubame switches" 243 (Network.num_switches ts);
  Alcotest.(check int) "tsubame terminals" 1407 (Network.num_terminals ts);
  Alcotest.(check int) "tsubame channels" 3384 (isl ts)

let generators_connected () =
  let nets =
    [ ("torus", (Topology.torus3d ~dims:(4, 4, 3) ~terminals_per_switch:4 ()).Topology.net);
      ("tree", Topology.kary_ntree ~k:4 ~n:3 ~terminals_per_leaf:2 ());
      ("kautz", Topology.kautz ~degree:3 ~diameter:2 ~terminals_per_switch:2 ());
      ("dragonfly", Topology.dragonfly ~a:4 ~p:2 ~h:2 ~g:4 ());
      ("cascade", Topology.cascade ());
      ("tsubame", Topology.tsubame25 ()) ]
  in
  List.iter
    (fun (name, net) ->
       Alcotest.(check bool) (name ^ " connected") true
         (Graph_algo.is_connected net))
    nets

let torus_coords_roundtrip () =
  let t = Topology.torus3d ~dims:(4, 3, 2) ~terminals_per_switch:1 () in
  let net = t.Topology.net in
  Array.iter
    (fun s ->
       let x, y, z = t.Topology.coord_of_switch.(s) in
       Alcotest.(check int) "grid roundtrip" s
         t.Topology.switch_of_coord.(x).(y).(z))
    (Network.switches net)

let torus_degree () =
  let t = Topology.torus3d ~dims:(4, 4, 4) ~terminals_per_switch:2 () in
  let net = t.Topology.net in
  Array.iter
    (fun s ->
       Alcotest.(check int) "6 neighbors + 2 terminals" 8
         (Network.degree net s))
    (Network.switches net)

let tree_level_structure () =
  let net = Topology.kary_ntree ~k:3 ~n:3 ~terminals_per_leaf:1 () in
  (* 27 switches: 9 per level; leaves carry terminals. *)
  Array.iter
    (fun s ->
       let l = Topology.tree_level ~net ~k:3 ~n:3 s in
       let terms = Network.attached_terminals net s in
       if l = 0 then
         Alcotest.(check int) "leaf has terminal" 1 (Array.length terms)
       else Alcotest.(check int) "inner has none" 0 (Array.length terms))
    (Network.switches net)

let random_respects_ports () =
  let prng = Prng.create 9 in
  let net =
    Topology.random prng ~switches:20 ~inter_switch_links:60
      ~terminals_per_switch:4 ~max_switch_ports:12 ()
  in
  Array.iter
    (fun s ->
       Alcotest.(check bool) "port budget" true (Network.degree net s <= 12))
    (Network.switches net)

(* {1 Fault injection} *)

let remove_switch_removes_terminals () =
  let t = Topology.torus3d ~dims:(3, 3, 3) ~terminals_per_switch:2 () in
  let net = t.Topology.net in
  let r = Fault.remove_switches net [ 0 ] in
  Alcotest.(check int) "one switch gone" 26 (Network.num_switches r.Fault.net);
  Alcotest.(check int) "its terminals gone" 52
    (Network.num_terminals r.Fault.net);
  Alcotest.(check bool) "still connected" true
    (Graph_algo.is_connected r.Fault.net)

let remap_roundtrip () =
  let net = Helpers.random_net () in
  let r = Fault.remove_switches net [ 3 ] in
  Array.iteri
    (fun nw old ->
       Alcotest.(check int) "of_old . to_old = id" nw r.Fault.of_old.(old))
    r.Fault.to_old;
  Alcotest.(check int) "removed maps to -1" (-1) r.Fault.of_old.(3)

let remove_links_by_pair () =
  let net = Helpers.ring5 ~with_terminals:false () in
  let before = Network.num_channels net in
  let r = Fault.remove_links net [ (0, 1) ] in
  Alcotest.(check int) "one duplex less" (before - 2)
    (Network.num_channels r.Fault.net);
  Alcotest.(check bool) "connected" true (Graph_algo.is_connected r.Fault.net)

let remove_links_missing_pair () =
  let net = Helpers.ring5 ~with_terminals:false () in
  (* An absent pair, a self pair and ids outside the network. *)
  List.iter
    (fun pair ->
       Alcotest.check_raises "absent link rejected"
         (Invalid_argument "Fault.remove_links: no such link")
         (fun () -> ignore (Fault.remove_links net [ pair ])))
    [ (0, 3); (1, 1); (-1, 0); (0, Network.num_nodes net) ]

let random_failures_keep_connectivity () =
  let t = Topology.torus3d ~dims:(4, 4, 4) ~terminals_per_switch:2 () in
  let prng = Prng.create 5 in
  let r = Fault.random_link_failures prng t.Topology.net ~fraction:0.05 in
  Alcotest.(check bool) "connected" true (Graph_algo.is_connected r.Fault.net);
  let isl net =
    (Network.num_channels net / 2) - Network.num_terminals net
  in
  (* 192 inter-switch links, 5% = 9 failures. *)
  Alcotest.(check int) "9 links removed" (isl t.Topology.net - 9)
    (isl r.Fault.net)

let random_failures_never_hit_terminals () =
  let net = Helpers.random_net ~switches:10 ~links:20 () in
  let prng = Prng.create 6 in
  let r = Fault.random_link_failures prng net ~fraction:0.2 in
  Alcotest.(check int) "terminals intact" (Network.num_terminals net)
    (Network.num_terminals r.Fault.net)

(* A fraction outside [0, 1], NaN included, is rejected, not clamped. *)
let fault_fraction_rejected () =
  let net = Helpers.ring5 () in
  List.iter
    (fun fraction ->
       let raises msg f =
         Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
             ignore (f (Prng.create 1) ~fraction))
       in
       raises "Fault.random_link_failures: fraction outside [0, 1]" (fun p ->
           Fault.random_link_failures p net);
       raises "Fault.random_link_repairs: fraction outside [0, 1]" (fun p ->
           Fault.random_link_repairs p ~base:net (Fault.identity net)))
    [ 1.5; -0.1; Float.nan; Float.infinity ]

(* The fault plan decided by one walk per candidate and built once gives
   the network, node maps and surviving links of the per-candidate
   rebuild, on random fabrics and on tori with and without parallel
   links. *)
let faultable_base =
  QCheck2.Gen.(
    oneof
      [ Helpers.arbitrary_net;
        map
          (fun (x, y, z, redundancy) ->
             (Topology.torus3d ~dims:(x, y, z) ~terminals_per_switch:1
                ~redundancy ())
               .Topology.net)
          (quad (int_range 2 4) (int_range 2 4) (int_range 2 3)
             (int_range 1 2)) ])

let qcheck_failures_reference =
  QCheck2.Test.make ~name:"random failures agree with the per-candidate rebuild"
    ~count:150
    QCheck2.Gen.(
      triple faultable_base
        (oneof [ pure 0.0; pure 1.0; float_bound_inclusive 1.0 ])
        (int_range 0 1_000_000))
    (fun (base, fraction, seed) ->
       let r = Fault.random_link_failures (Prng.create seed) base ~fraction in
       let e =
         Fault_reference.random_link_failures (Prng.create seed) base ~fraction
       in
       let net = r.Fault.net in
       let kinds n = Array.init (Network.num_nodes n) (Network.kind n) in
       let to_base = Fault.base_channels ~base r in
       let same_endpoints c =
         Network.src base to_base.(c) = r.Fault.to_old.(Network.src net c)
         && Network.dst base to_base.(c) = r.Fault.to_old.(Network.dst net c)
       in
       Network.name net = Network.name e.Fault_reference.net
       && kinds net = kinds e.Fault_reference.net
       && Network.duplex_pairs net = Network.duplex_pairs e.Fault_reference.net
       && r.Fault.to_old = e.Fault_reference.to_old
       && r.Fault.of_old = e.Fault_reference.of_old
       && Array.for_all Fun.id
            (Array.init (Network.num_channels net) (fun c ->
                 same_endpoints c
                 && to_base.(c) = (2 * e.Fault_reference.kept.(c / 2)) + (c mod 2)))
       && List.length (snd (Fault.removed base r))
          = (Network.num_channels base - Network.num_channels net) / 2)

let qcheck_random_topology_valid =
  QCheck2.Test.make ~name:"random topologies are connected and valid"
    ~count:60 Helpers.arbitrary_net (fun net ->
        Graph_algo.is_connected net
        && Array.for_all
             (fun t -> Network.degree net t = 1)
             (Network.terminals net))

let suite =
  [ ("network",
     [ test_case "builder basics" `Quick build_basics;
       test_case "rev involution" `Quick channel_reverse_involution;
       test_case "adjacency consistency" `Quick adjacency_consistency;
       test_case "terminal validation" `Quick terminal_validation;
       test_case "self loop rejected" `Quick self_loop_rejected;
       test_case "terminal attachment" `Quick terminal_attachment;
       test_case "parallel links" `Quick multigraph_parallel_links;
       test_case "find_channel" `Quick find_channel_works ]);
    ("graph_algo",
     [ test_case "bfs distances" `Quick bfs_ring_distances;
       test_case "connectivity" `Quick connectivity;
       test_case "components" `Quick components_labels;
       test_case "dijkstra = bfs on unit weights" `Quick
         dijkstra_matches_bfs_on_unit_weights;
       test_case "dijkstra respects weights" `Quick dijkstra_respects_weights;
       test_case "spanning tree" `Quick spanning_tree_properties;
       test_case "tree routing" `Quick tree_routing_reaches_dest;
       test_case "loop detection" `Quick path_of_next_detects_loop ]);
    ("brandes",
     [ test_case "line center" `Quick brandes_line_graph;
       test_case "star center" `Quick brandes_star_center;
       test_case "member restriction" `Quick brandes_members_restriction;
       test_case "ring symmetry" `Quick brandes_known_value ]);
    ("convex",
     [ test_case "line interval" `Quick convex_line_interval;
       test_case "ring both sides" `Quick convex_ring_both_sides;
       test_case "contains members" `Quick convex_contains_members ]);
    ("topology",
     [ test_case "Table 1 counts" `Quick table1_counts;
       test_case "generators connected" `Quick generators_connected;
       test_case "torus coords roundtrip" `Quick torus_coords_roundtrip;
       test_case "torus degree" `Quick torus_degree;
       test_case "tree levels" `Quick tree_level_structure;
       test_case "random respects ports" `Quick random_respects_ports;
       QCheck_alcotest.to_alcotest qcheck_random_topology_valid ]);
    ("fault",
     [ test_case "switch removal" `Quick remove_switch_removes_terminals;
       test_case "remap roundtrip" `Quick remap_roundtrip;
       test_case "link removal" `Quick remove_links_by_pair;
       test_case "missing link rejected" `Quick remove_links_missing_pair;
       test_case "random failures keep connectivity" `Quick
         random_failures_keep_connectivity;
       test_case "random failures spare terminals" `Quick
         random_failures_never_hit_terminals;
       test_case "fractions outside [0, 1] rejected" `Quick
         fault_fraction_rejected;
       QCheck_alcotest.to_alcotest qcheck_failures_reference ]) ]
