(* Tests for lib/core: partitioning, root selection, escape paths and
   Nue routing itself — including the paper's headline property as a
   QCheck invariant: Nue is deadlock-free and connected on any topology
   with any number of VCs. *)

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Fault = Nue_netgraph.Fault
module Complete_cdg = Nue_cdg.Complete_cdg
module Table = Nue_routing.Table
module Verify = Nue_routing.Verify
module Partition = Nue_core.Partition
module Rootsel = Nue_core.Rootsel
module Escape = Nue_core.Escape
module Nue = Nue_core.Nue
module Nue_dijkstra = Nue_core.Nue_dijkstra
module Brandes = Nue_netgraph.Brandes
module Prng = Nue_structures.Prng

let test_case = Alcotest.test_case

(* {1 Partition} *)

let partition_covers_all strategy () =
  let net = Helpers.random_net ~switches:16 ~links:40 ~terminals:3 () in
  let dests = Network.terminals net in
  List.iter
    (fun k ->
       let parts = Partition.partition ~strategy net ~dests ~k in
       Alcotest.(check int) "k parts" k (Array.length parts);
       let seen = Hashtbl.create 64 in
       Array.iter
         (Array.iter (fun d ->
              if Hashtbl.mem seen d then Alcotest.fail "duplicate destination";
              Hashtbl.add seen d ()))
         parts;
       Alcotest.(check int) "all covered" (Array.length dests)
         (Hashtbl.length seen))
    [ 1; 2; 3; 8 ]

let partition_k1_identity () =
  let net = Helpers.ring5 () in
  let dests = Network.terminals net in
  let parts = Partition.partition net ~dests ~k:1 in
  Alcotest.(check (array int)) "single part is everything" dests parts.(0)

let partition_balance () =
  let net = Helpers.random_net ~switches:24 ~links:60 ~terminals:4 () in
  let dests = Network.terminals net in
  List.iter
    (fun strategy ->
       let parts = Partition.partition ~strategy net ~dests ~k:4 in
       Array.iter
         (fun p ->
            (* 96 dests over 4 parts: allow generous slack for the
               graph-structured strategies. *)
            Alcotest.(check bool) "roughly balanced" true
              (Array.length p >= 8 && Array.length p <= 40))
         parts)
    [ Partition.Kway; Partition.Random; Partition.Clustered ]

let partition_clustered_keeps_switch_groups () =
  let net = Helpers.random_net ~switches:12 ~links:30 ~terminals:3 () in
  let dests = Network.terminals net in
  let parts =
    Partition.partition ~strategy:Partition.Clustered net ~dests ~k:3
  in
  (* All terminals of one switch land in the same part. *)
  let part_of = Hashtbl.create 64 in
  Array.iteri
    (fun p ds -> Array.iter (fun d -> Hashtbl.replace part_of d p) ds)
    parts;
  Array.iter
    (fun t ->
       let s = Network.terminal_attachment net t in
       Array.iter
         (fun t' ->
            Alcotest.(check int) "same switch, same part"
              (Hashtbl.find part_of t) (Hashtbl.find part_of t'))
         (Network.attached_terminals net s))
    dests

let partition_deterministic () =
  let net = Helpers.random_net () in
  let dests = Network.terminals net in
  let p1 =
    Partition.partition ~prng:(Prng.create 5) net ~dests ~k:4
  in
  let p2 =
    Partition.partition ~prng:(Prng.create 5) net ~dests ~k:4
  in
  Alcotest.(check bool) "same seed, same partition" true (p1 = p2)

(* The k-way subsets pinned by digest, one per fabric, over k = 2/3/4/8
   with the terminals and then the switches as destinations. Every fabric
   coarsens over several levels before the initial partition. *)
let partition_fabrics () =
  let faulty net seed fraction =
    (Fault.random_link_failures (Prng.create seed) net ~fraction).Fault.net
  in
  [ ( "random-faulty",
      faulty
        (Topology.random (Prng.create 11) ~switches:100
           ~inter_switch_links:300 ~terminals_per_switch:3 ())
        12 0.1,
      "949167e965f5a6c85383f01c654dbf90" );
    ( "torus-r2",
      (Topology.torus3d ~dims:(6, 6, 4) ~terminals_per_switch:2 ~redundancy:2
         ())
        .Topology.net,
      "4e949d1794ee701812c4e6421c20e740" );
    ( "tree-faulty",
      faulty (Topology.kary_ntree ~k:6 ~n:3 ~terminals_per_leaf:4 ()) 13 0.05,
      "9cb971f8b86f68a2d42718aa7de079ae" ) ]

let partition_digests () =
  List.iter
    (fun (name, net, expected) ->
       let buf = Buffer.create 4096 in
       List.iter
         (fun dests ->
            List.iter
              (fun k ->
                 let parts =
                   Partition.partition ~strategy:Partition.Kway net ~dests ~k
                 in
                 Buffer.add_string buf (Printf.sprintf "k%d" k);
                 Array.iter
                   (fun p ->
                      Buffer.add_char buf '|';
                      Array.iter
                        (fun d -> Buffer.add_string buf (Printf.sprintf "%d," d))
                        p)
                   parts;
                 Buffer.add_char buf '\n')
              [ 2; 3; 4; 8 ])
         [ Network.terminals net; Network.switches net ];
       Alcotest.(check string) name expected
         (Digest.to_hex (Digest.string (Buffer.contents buf))))
    (partition_fabrics ())

(* {1 Rootsel} *)

let rootsel_paper_example () =
  (* Section 4.3: for the 5-ring with shortcut and destinations
     {n1, n2, n3}, n2 (id 1) is the preferred root. *)
  let net = Helpers.ring5 ~with_terminals:false () in
  Alcotest.(check int) "root is n2" 1 (Rootsel.choose net ~dests:[| 0; 1; 2 |])

let rootsel_full_set_center () =
  let net = Helpers.line 7 in
  let root = Rootsel.choose net ~dests:(Network.switches net) in
  Alcotest.(check int) "line center" 3 root

let rootsel_single_dest () =
  let net = Helpers.ring5 () in
  Alcotest.(check int) "singleton" 2 (Rootsel.choose net ~dests:[| 2 |])

(* Fabrics for the property below, 1-8 terminals per switch: random with
   10% link failures, a redundancy-2 torus, a faulty k-ary n-tree, and a
   random multigraph whose terminals are attached round-robin, so that
   the terminals of two switches interleave in id order. *)
let rootsel_fabric seed =
  let prng = Prng.create seed in
  let terminals = 1 + Prng.int prng 8 in
  let faulty net =
    (Fault.random_link_failures prng net ~fraction:0.1).Fault.net
  in
  match seed mod 4 with
  | 0 ->
    let switches = 4 + Prng.int prng 20 in
    let links =
      min (switches * (switches - 1) / 2) (switches + Prng.int prng (2 * switches))
    in
    faulty
      (Topology.random prng ~switches ~inter_switch_links:links
         ~terminals_per_switch:terminals ~max_switch_ports:64 ())
  | 1 ->
    let d () = 2 + Prng.int prng 3 in
    (Topology.torus3d ~dims:(d (), d (), d ()) ~terminals_per_switch:terminals
       ~redundancy:2 ())
      .Topology.net
  | 2 ->
    faulty
      (Topology.kary_ntree ~k:(2 + Prng.int prng 3) ~n:(2 + Prng.int prng 2)
         ~terminals_per_leaf:terminals ())
  | _ ->
    let b = Network.Builder.create () in
    let ns = 3 + Prng.int prng 10 in
    let sw = Array.init ns (fun _ -> Network.Builder.add_switch b) in
    for i = 1 to ns - 1 do
      Network.Builder.connect b sw.(Prng.int prng i) sw.(i)
    done;
    (* Repeated pairs become parallel links. *)
    for _ = 1 to Prng.int prng (2 * ns) do
      let u = Prng.int prng ns and v = Prng.int prng ns in
      if u <> v then Network.Builder.connect b sw.(u) sw.(v)
    done;
    for _ = 1 to terminals do
      Array.iter
        (fun s -> Network.Builder.connect b (Network.Builder.add_terminal b) s)
        sw
    done;
    Network.Builder.build b

(* Nue's k-way subsets of the terminals for k = 1..8, every node, all
   switches, a random mix of switches and terminals, and the terminals
   of two switches. *)
let rootsel_member_sets net seed =
  let prng = Prng.create (seed + 1) in
  let nn = Network.num_nodes net in
  let terms = Network.terminals net and sws = Network.switches net in
  let kway =
    List.concat_map
      (fun k -> Array.to_list (Partition.partition net ~dests:terms ~k))
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let mixed =
    Array.of_list
      (List.filter (fun _ -> Prng.bool prng) (List.init nn Fun.id))
  in
  let two =
    match
      List.filter
        (fun s -> Array.length (Network.attached_terminals net s) > 0)
        (Array.to_list sws)
    with
    | a :: b :: _ ->
      Array.append (Network.attached_terminals net a)
        (Network.attached_terminals net b)
    | _ -> [||]
  in
  List.filter
    (fun m -> Array.length m > 0)
    (kway @ [ Array.init nn Fun.id; sws; mixed; two ])

let qcheck_rootsel_matches_reference =
  QCheck2.Test.make
    ~name:"rootsel: one pass per attachment switch matches the per-member \
           reference"
    ~count:60 (QCheck2.Gen.int_range 0 100000)
    (fun seed ->
       let net = rootsel_fabric seed in
       List.for_all
         (fun members ->
            let cb, hull = Brandes.centrality ~members net in
            let mask = Rootsel_reference.convex net members in
            let expected = Rootsel_reference.centrality ~mask ~members net in
            hull = mask
            && Array.for_all2
                 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
                 cb expected
            && Rootsel.choose net ~dests:members
               = Rootsel_reference.choose net ~dests:members)
         (rootsel_member_sets net seed))

(* {1 Escape} *)

let escape_marks_acyclic_dependencies () =
  let net = Helpers.ring5 ~with_terminals:false () in
  let cdg = Complete_cdg.create net in
  let escape = Escape.prepare cdg ~root:4 ~dests:[| 0; 1; 2 |] in
  Alcotest.(check bool) "positive dependency count" true
    (Escape.initial_dependencies escape > 0);
  Alcotest.(check bool) "acyclic" true (Complete_cdg.used_subgraph_acyclic cdg)

let escape_root_choice_matters () =
  (* The paper's Fig. 5 point: a central root for the subset induces
     fewer initial channel dependencies than an eccentric one. *)
  let net = Helpers.ring5 ~with_terminals:false () in
  let deps root =
    let cdg = Complete_cdg.create net in
    Escape.initial_dependencies
      (Escape.prepare cdg ~root ~dests:[| 0; 1; 2 |])
  in
  Alcotest.(check bool) "central root wins" true (deps 1 < deps 4);
  (* With our BFS tree construction the counts are 4 vs 6 (the paper's
     trees give 4 vs 5; the ordering is what matters). *)
  Alcotest.(check int) "n2 count" 4 (deps 1)

let escape_routing_total () =
  let net = Helpers.random_net () in
  let cdg = Complete_cdg.create net in
  let dests = Network.terminals net in
  let escape = Escape.prepare cdg ~root:0 ~dests in
  Array.iter
    (fun dest ->
       let next = Escape.next_toward escape ~dest in
       for n = 0 to Network.num_nodes net - 1 do
         if n <> dest then
           Alcotest.(check bool) "escape next defined" true (next.(n) >= 0)
       done)
    dests

(* Reference for [Escape.prepare]: the literal loop over destinations,
   then nodes in id order, that uses each node's tree hop toward the
   destination and admits each tree in-channel's dependency onto it.
   The admitted count, or [None] once an admission is refused. *)
let escape_reference cdg ~root ~dests =
  let net = Complete_cdg.network cdg in
  let tree = Nue_netgraph.Graph_algo.spanning_tree net ~root in
  let deps = ref 0 in
  match
    Array.iter
      (fun dest ->
         let next = Nue_netgraph.Graph_algo.tree_next_channel net tree ~dest in
         for node = 0 to Network.num_nodes net - 1 do
           let c_out = next.(node) in
           if node <> dest && c_out >= 0 then
             Array.iter
               (fun c_in ->
                  if
                    tree.Nue_netgraph.Graph_algo.tree_channel.(c_in)
                    && Complete_cdg.is_edge cdg ~from:c_in ~to_:c_out
                    && Complete_cdg.edge_omega cdg ~from:c_in ~to_:c_out = 0
                  then
                    if Complete_cdg.try_use_edge cdg ~from:c_in ~to_:c_out
                    then incr deps
                    else raise Exit)
               (Network.in_channels net node)
         done)
      dests
  with
  | () -> Some !deps
  | exception Exit -> None

(* Everything the escape set-up can change that a later search reads:
   the edge states, the topological order, the search count. *)
let cdg_state cdg =
  let nc = Complete_cdg.num_channels cdg in
  let edges = ref [] in
  for c = nc - 1 downto 0 do
    Complete_cdg.iter_succ cdg c (fun q ->
        edges := Complete_cdg.edge_omega cdg ~from:c ~to_:q :: !edges)
  done;
  ( Array.init nc (Complete_cdg.order cdg),
    !edges,
    Complete_cdg.cycle_searches cdg )

(* Random edge admissions, the same on every CDG of the network for a
   seed: a partly decided orientation for [prepare_into]. *)
let admit_random_edges cdg ~seed ~count =
  let prng = Prng.create seed in
  let nc = Complete_cdg.num_channels cdg in
  for _ = 1 to count do
    let c = Prng.int prng nc in
    let succ = ref [] in
    Complete_cdg.iter_succ cdg c (fun q -> succ := q :: !succ);
    match !succ with
    | [] -> ()
    | l ->
      let q = List.nth l (Prng.int prng (List.length l)) in
      ignore (Complete_cdg.try_use_edge cdg ~from:c ~to_:q)
  done

let qcheck_escape_matches_reference =
  QCheck2.Test.make
    ~name:"escape: one tree walk makes the per-destination loop's calls"
    ~count:60
    QCheck2.Gen.(pair Helpers.arbitrary_net (int_range 0 100000))
    (fun (net, seed) ->
       let prng = Prng.create seed in
       let nn = Network.num_nodes net in
       let root = Prng.int prng nn in
       (* Any nodes, any order, repeats allowed. *)
       let dests =
         Array.init (1 + Prng.int prng (2 * nn)) (fun _ -> Prng.int prng nn)
       in
       let fresh = Complete_cdg.create net in
       let reference = Complete_cdg.create net in
       let escape = Escape.prepare fresh ~root ~dests in
       let deps = escape_reference reference ~root ~dests in
       let prepared_ok =
         deps = Some (Escape.initial_dependencies escape)
         && cdg_state fresh = cdg_state reference
       in
       (* Onto a CDG with used (and blocked) edges already. *)
       let replayed = Complete_cdg.create net in
       let reference = Complete_cdg.create net in
       let count = Complete_cdg.num_channels replayed / 4 in
       admit_random_edges replayed ~seed ~count;
       admit_random_edges reference ~seed ~count;
       let into = Escape.prepare_into replayed ~root ~dests in
       let deps = escape_reference reference ~root ~dests in
       prepared_ok
       && Option.map Escape.initial_dependencies into = deps
       && cdg_state replayed = cdg_state reference)

let escape_allocation_bounded () =
  (* The escape set-up allocates its tree and O(nodes) scratch, not an
     escape next-array per destination. *)
  let net = (Topology.torus3d ~dims:(6, 6, 6) ~terminals_per_switch:2 ()).net in
  let dests = Network.terminals net in
  let cdg = Complete_cdg.create net in
  let escape, words =
    Helpers.words_allocated (fun () -> Escape.prepare cdg ~root:0 ~dests)
  in
  let size = Network.num_nodes net + Network.num_channels net in
  Alcotest.(check int) "destinations" 432 (Array.length dests);
  Alcotest.(check bool) "dependencies admitted" true
    (Escape.initial_dependencies escape > 0);
  if words > float_of_int (16 * size) then
    Alcotest.failf "Escape.prepare allocated %.0f words, bound 16 x %d" words
      size

(* {1 Nue routing} *)

let nue_all_topologies_all_k () =
  let nets =
    [ ("ring5", Helpers.ring5 ());
      ("torus333", (Helpers.small_torus ()).Topology.net);
      ("random", Helpers.random_net ());
      ("tree", Topology.kary_ntree ~k:3 ~n:2 ~terminals_per_leaf:2 ());
      ("kautz", Topology.kautz ~degree:3 ~diameter:2 ~terminals_per_switch:1 ());
      ("dragonfly", Topology.dragonfly ~a:4 ~p:2 ~h:2 ~g:4 ()) ]
  in
  List.iter
    (fun (name, net) ->
       List.iter
         (fun vcs ->
            let table = Nue.route ~vcs net in
            Helpers.check_table_valid (Printf.sprintf "nue/%s/k=%d" name vcs) table;
            Alcotest.(check bool) "vl budget respected" true
              (table.Table.num_vls <= max 1 vcs))
         [ 1; 2; 3; 8 ])
    nets

let nue_faulty_torus () =
  let torus = Topology.torus3d ~dims:(4, 4, 3) ~terminals_per_switch:4 () in
  let remap = Fault.remove_switches torus.Topology.net [ 7 ] in
  List.iter
    (fun vcs ->
       let table = Nue.route ~vcs remap.Fault.net in
       Helpers.check_table_valid (Printf.sprintf "nue/faulty-torus/k=%d" vcs)
         table)
    [ 1; 2; 3; 4 ]

let nue_vl_assignment_is_per_dest () =
  let net = (Helpers.small_torus ()).Topology.net in
  let table = Nue.route ~vcs:4 net in
  match table.Table.vl with
  | Table.Per_dest layers ->
    Array.iter
      (fun l ->
         Alcotest.(check bool) "layer in range" true (l >= 0 && l < 4))
      layers;
    (* With k-way partitioning over 4 layers, at least 2 layers are
       actually populated on this torus. *)
    let distinct = List.sort_uniq compare (Array.to_list layers) in
    Alcotest.(check bool) "multiple layers used" true
      (List.length distinct >= 2)
  | _ -> Alcotest.fail "expected per-destination layering"

let nue_deterministic () =
  let net = Helpers.random_net ~seed:77 () in
  let t1 = Nue.route ~vcs:3 net in
  let t2 = Nue.route ~vcs:3 net in
  Alcotest.(check bool) "same tables" true
    (t1.Table.next_channel = t2.Table.next_channel)

let nue_options_ablation () =
  (* Disabling the optimizations must not break validity — only path
     quality/fallback counts may change. *)
  let net = (Helpers.small_torus ()).Topology.net in
  List.iter
    (fun (bt, sc) ->
       let options =
         { Nue.default_options with use_backtracking = bt; use_shortcuts = sc }
       in
       let table, _ = Nue.route_with_stats ~options ~vcs:1 net in
       Helpers.check_table_valid
         (Printf.sprintf "nue/bt=%b/sc=%b" bt sc)
         table)
    [ (false, false); (true, false); (false, true); (true, true) ]

let nue_partition_strategies () =
  let net = Helpers.random_net ~seed:11 () in
  List.iter
    (fun strategy ->
       let options = { Nue.default_options with strategy } in
       let table = Nue.route ~options ~vcs:4 net in
       Helpers.check_table_valid "nue/partition-strategy" table)
    [ Partition.Kway; Partition.Random; Partition.Clustered ]

let nue_per_layer_weights () =
  let net = Helpers.random_net ~seed:12 () in
  let options = { Nue.default_options with global_weights = false } in
  Helpers.check_table_valid "nue/per-layer-weights" (Nue.route ~options ~vcs:4 net)

let nue_switch_destinations () =
  (* Switches can be destinations too (management traffic). *)
  let net = Helpers.ring5 () in
  let dests =
    Array.append (Network.terminals net) (Network.switches net)
  in
  let table = Nue.route ~dests ~vcs:2 net in
  let r = Verify.check table in
  Alcotest.(check bool) "connected" true r.Verify.connected;
  Alcotest.(check bool) "deadlock-free" true r.Verify.deadlock_free

let nue_stats_consistency () =
  let net = (Helpers.small_torus ()).Topology.net in
  let table, stats = Nue.route_with_stats ~vcs:2 net in
  Alcotest.(check (float 0.0)) "fallbacks exported"
    (float_of_int stats.Nue.fallbacks)
    (Option.get (Table.info_value table "fallbacks"));
  Alcotest.(check int) "one root per populated layer" 2
    (Array.length stats.Nue.roots);
  Alcotest.(check bool) "initial deps positive" true (stats.Nue.initial_deps > 0)

let nue_path_lengths_reasonable () =
  (* Nue paths may exceed shortest, but not absurdly (paper: worst case
     7-10 on random networks of diameter ~4). *)
  let net = Helpers.random_net ~switches:24 ~links:60 ~terminals:2 () in
  let table = Nue.route ~vcs:2 net in
  let stats =
    Nue_metrics.Pathstats.of_stats (Nue_routing.Verify.stats table)
  in
  let diameter =
    Array.fold_left
      (fun acc s ->
         let d = Nue_netgraph.Graph_algo.bfs_distances net s in
         Array.fold_left (fun a x -> if x < max_int && x > a then x else a) acc d)
      0 (Network.switches net)
  in
  Alcotest.(check bool) "max path bounded by 2x diameter + 2" true
    (stats.Nue_metrics.Pathstats.max_hops <= (2 * diameter) + 2)

(* One destination search through [route_destination] on a fresh copy
   of the same prepared CDG, so two calls see the same state. *)
let dijkstra_fixture () =
  let net = Helpers.random_net ~switches:12 ~links:30 ~terminals:2 () in
  let dests = Network.terminals net in
  let prepared () =
    let cdg = Complete_cdg.create net in
    (cdg, Escape.prepare cdg ~root:0 ~dests)
  in
  (net, dests, prepared)

let dijkstra_scratch_creates_no_heap () =
  (* A heap grows its arrays when a search outgrows them. Searching
     with the scratch's heap, the first pass over the destinations pays
     that growth once, so a second, identical pass allocates less; a
     search that made its own heap would regrow it every time, and both
     passes would allocate the same. *)
  let net, dests, prepared = dijkstra_fixture () in
  let weights = Array.make (Network.num_channels net) 1.0 in
  let scratch = Nue_dijkstra.create_scratch net in
  let pass () =
    let cdg, escape = prepared () in
    let stats = Nue_dijkstra.fresh_stats () in
    let w0 = Gc.minor_words () in
    let rows =
      Array.map
        (fun dest ->
           Nue_dijkstra.route_destination cdg ~escape ~weights ~dest ~scratch
             ~stats ())
        dests
    in
    (rows, Gc.minor_words () -. w0)
  in
  let rows, first = pass () in
  let rows', second = pass () in
  Alcotest.(check bool) "same rows" true (rows = rows');
  if not (second < first) then
    Alcotest.failf "second pass allocated %.0f minor words, first %.0f"
      second first

let dijkstra_scratch_survives_a_raise () =
  (* A weights array that misses the last quarter of the channels (the
     links of the last switches' terminals) makes a search raise when it
     first meets one, part-way through and with candidates left in its
     heap. The next search on the same scratch must not see them. *)
  let net, dests, prepared = dijkstra_fixture () in
  let nc = Network.num_channels net in
  let short = Array.make (3 * nc / 4) 1.0 and weights = Array.make nc 1.0 in
  let raised = ref 0 in
  let route ?scratch () =
    let cdg, escape = prepared () in
    let stats = Nue_dijkstra.fresh_stats () in
    Array.map
      (fun dest ->
         (match
            Nue_dijkstra.route_destination cdg ~escape ~weights:short ~dest
              ?scratch ~stats ()
          with
          | exception Invalid_argument _ -> incr raised
          | _ -> ());
         Nue_dijkstra.route_destination cdg ~escape ~weights ~dest ?scratch
           ~stats ())
      dests
  in
  let scratch = Nue_dijkstra.create_scratch net in
  let rows = route ~scratch () in
  Alcotest.(check bool) "searches raised" true (!raised > 0);
  Alcotest.(check bool) "same rows as fresh scratch" true (rows = route ())

(* The paper's headline claim as a property: for ANY connected topology
   and ANY k >= 1, Nue produces valid deadlock-free destination-based
   routing. *)
let qcheck_nue_always_valid =
  QCheck2.Test.make ~name:"nue valid on random topologies for any k" ~count:40
    QCheck2.Gen.(pair Helpers.arbitrary_net (int_range 1 6))
    (fun (net, vcs) ->
       let table = Nue.route ~vcs net in
       let r = Verify.check table in
       r.Verify.connected && r.Verify.cycle_free && r.Verify.deadlock_free)

let qcheck_nue_fallback_bounded =
  QCheck2.Test.make ~name:"nue fallbacks never exceed destinations" ~count:20
    Helpers.arbitrary_net
    (fun net ->
       let _, stats = Nue.route_with_stats ~vcs:1 net in
       stats.Nue.fallbacks <= Network.num_terminals net)

let suite =
  [ ("partition",
     [ test_case "kway covers all" `Quick (partition_covers_all Partition.Kway);
       test_case "random covers all" `Quick
         (partition_covers_all Partition.Random);
       test_case "clustered covers all" `Quick
         (partition_covers_all Partition.Clustered);
       test_case "k=1 identity" `Quick partition_k1_identity;
       test_case "balance" `Quick partition_balance;
       test_case "clustered keeps switch groups" `Quick
         partition_clustered_keeps_switch_groups;
       test_case "deterministic" `Quick partition_deterministic;
       test_case "kway digests" `Quick partition_digests ]);
    ("rootsel",
     [ test_case "paper example (Fig. 5)" `Quick rootsel_paper_example;
       test_case "line center" `Quick rootsel_full_set_center;
       test_case "single destination" `Quick rootsel_single_dest;
       QCheck_alcotest.to_alcotest qcheck_rootsel_matches_reference ]);
    ("escape",
     [ test_case "acyclic dependencies" `Quick escape_marks_acyclic_dependencies;
       test_case "root choice matters (Fig. 5)" `Quick escape_root_choice_matters;
       test_case "escape routing is total" `Quick escape_routing_total;
       QCheck_alcotest.to_alcotest qcheck_escape_matches_reference;
       test_case "allocation independent of destinations" `Quick
         escape_allocation_bounded ]);
    ("nue",
     [ test_case "valid on all topologies, k in {1,2,3,8}" `Slow
         nue_all_topologies_all_k;
       test_case "faulty torus (Fig. 1 scenario)" `Quick nue_faulty_torus;
       test_case "per-destination VL assignment" `Quick
         nue_vl_assignment_is_per_dest;
       test_case "deterministic" `Quick nue_deterministic;
       test_case "optimization ablation stays valid" `Quick nue_options_ablation;
       test_case "partition strategies stay valid" `Quick
         nue_partition_strategies;
       test_case "per-layer weights stay valid" `Quick nue_per_layer_weights;
       test_case "switch destinations" `Quick nue_switch_destinations;
       test_case "stats consistency" `Quick nue_stats_consistency;
       test_case "path lengths reasonable" `Quick nue_path_lengths_reasonable;
       QCheck_alcotest.to_alcotest qcheck_nue_always_valid;
       QCheck_alcotest.to_alcotest qcheck_nue_fallback_bounded;
       test_case "dijkstra scratch creates no heap" `Quick
         dijkstra_scratch_creates_no_heap;
       test_case "dijkstra scratch survives a raise" `Quick
         dijkstra_scratch_survives_a_raise ]) ]
