(* Tests for lib/routing: tables, verification, layer assignment and the
   baseline routing algorithms. *)

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Fault = Nue_netgraph.Fault
module Table = Nue_routing.Table
module Verify = Nue_routing.Verify
module Layers = Nue_routing.Layers
module Balance = Nue_routing.Balance
module Minhop = Nue_routing.Minhop
module Updown = Nue_routing.Updown
module Dfsssp = Nue_routing.Dfsssp
module Lash = Nue_routing.Lash
module Torus2qos = Nue_routing.Torus2qos
module Fattree = Nue_routing.Fattree
module Engine_error = Nue_routing.Engine_error
module Prng = Nue_structures.Prng
module Forwarding_index = Nue_metrics.Forwarding_index
module Pathstats = Nue_metrics.Pathstats

let test_case = Alcotest.test_case

(* {1 Table} *)

let table_paths () =
  let net = Helpers.line 4 in
  let table = Minhop.route net in
  let terms = Network.terminals net in
  let src = terms.(0) and dest = terms.(3) in
  (match Table.path table ~src ~dest with
   | None -> Alcotest.fail "no path"
   | Some p ->
     (* terminal -> s0 -> s1 -> s2 -> s3 -> terminal = 5 hops. *)
     Alcotest.(check int) "hop count" 5 (List.length p));
  Alcotest.(check bool) "unknown dest raises" true
    (match Table.path table ~src ~dest:0 with
     | exception Invalid_argument _ -> true
     | _ -> false)

let table_next_is_destination_based () =
  let net = Helpers.random_net () in
  let table = Minhop.route net in
  (* next() per (node, dest) is a function: trivially true for Table,
     but check it is populated for all nodes and routed dests. *)
  Array.iter
    (fun dest ->
       for node = 0 to Network.num_nodes net - 1 do
         if node <> dest then
           Alcotest.(check bool) "next exists" true
             (Table.next table ~node ~dest >= 0)
       done)
    table.Table.dests

let table_vl_schemes () =
  let net = Helpers.line 3 in
  let terms = Network.terminals net in
  let base = Minhop.route net in
  let per_dest =
    Table.make ~net ~algorithm:"x" ~dests:base.Table.dests
      ~next_channel:base.Table.next_channel
      ~vl:(Table.Per_dest (Array.map (fun _ -> 1) base.Table.dests))
      ~num_vls:2 ()
  in
  (match Table.path_with_vls per_dest ~src:terms.(0) ~dest:terms.(2) with
   | Some hops -> List.iter (fun (_, vl) -> Alcotest.(check int) "vl=1" 1 vl) hops
   | None -> Alcotest.fail "path expected");
  let per_hop =
    Table.make ~net ~algorithm:"x" ~dests:base.Table.dests
      ~next_channel:base.Table.next_channel
      ~vl:(Table.Per_hop (fun ~src:_ ~dest:_ ~hop ~channel:_ -> hop))
      ~num_vls:8 ()
  in
  match Table.path_with_vls per_hop ~src:terms.(0) ~dest:terms.(2) with
  | Some hops ->
    List.iteri (fun i (_, vl) -> Alcotest.(check int) "vl=hop" i vl) hops
  | None -> Alcotest.fail "path expected"

(* {1 Balance} *)

let balance_loads () =
  let net = Helpers.line 3 in
  let terms = Network.terminals net in
  let table = Minhop.route net in
  let pos = Table.dest_position table terms.(2) in
  let loads = Array.make (Network.num_channels net) 0.0 in
  Balance.update_weights net ~weights:loads
    ~nexts:table.Table.next_channel.(pos) ~dest:terms.(2) ~sources:terms;
  (* Both other terminals route through switch link s1->s2. *)
  let c12 = Option.get (Network.find_channel net 1 2) in
  Alcotest.(check (float 0.)) "shared middle link" 2.0 loads.(c12);
  let c01 = Option.get (Network.find_channel net 0 1) in
  Alcotest.(check (float 0.)) "first link carries one" 1.0 loads.(c01)

let balance_walk_of_another_network () =
  let net = Helpers.line 3 in
  let terms = Network.terminals net in
  let table = Minhop.route net in
  let pos = Table.dest_position table terms.(2) in
  let weights = Array.make (Network.num_channels net) 0.0 in
  (* An equal network, but another one: its walk is refused. *)
  let other = Verify.walk (Helpers.line 3) in
  Alcotest.check_raises "refused"
    (Invalid_argument "Verify.iter_loads: walk of another network")
    (fun () ->
       Balance.update_weights ~walk:other net ~weights
         ~nexts:table.Table.next_channel.(pos) ~dest:terms.(2) ~sources:terms);
  Alcotest.(check bool) "weights untouched" true
    (Array.for_all (fun w -> w = 0.0) weights)

(* {1 Verify} *)

let verify_accepts_valid () =
  let net = Helpers.line 5 in
  Helpers.check_table_valid "minhop on a tree" (Minhop.route net)

let verify_detects_forwarding_loop () =
  let net = Helpers.ring ~terminals:1 4 in
  let terms = Network.terminals net in
  let dests = [| terms.(0) |] in
  let nn = Network.num_nodes net in
  let nexts = Array.make nn (-1) in
  (* Switches forward clockwise forever; terminals inject. *)
  for i = 0 to 3 do
    nexts.(i) <- Option.get (Network.find_channel net i ((i + 1) mod 4))
  done;
  Array.iter
    (fun t -> nexts.(t) <- (Network.out_channels net t).(0))
    terms;
  let table =
    Table.make ~net ~algorithm:"loopy" ~dests ~next_channel:[| nexts |]
      ~vl:Table.All_zero ~num_vls:1 ()
  in
  let r = Verify.check table in
  Alcotest.(check bool) "not cycle free" false r.Verify.cycle_free;
  Alcotest.(check bool) "not connected" false r.Verify.connected

let verify_detects_deadlock () =
  (* Clockwise minimal-ish routing on a 4-ring: valid paths, cyclic
     dependencies. *)
  let net = Helpers.ring ~terminals:1 4 in
  let terms = Network.terminals net in
  let nn = Network.num_nodes net in
  let next_channel =
    Array.map
      (fun dest ->
         let dw = Network.terminal_attachment net dest in
         let nexts = Array.make nn (-1) in
         for i = 0 to 3 do
           if i = dw then
             nexts.(i) <- Option.get (Network.find_channel net i dest)
           else
             nexts.(i) <- Option.get (Network.find_channel net i ((i + 1) mod 4))
         done;
         Array.iter
           (fun t -> if t <> dest then nexts.(t) <- (Network.out_channels net t).(0))
           terms;
         nexts)
      terms
  in
  let table =
    Table.make ~net ~algorithm:"clockwise" ~dests:terms ~next_channel
      ~vl:Table.All_zero ~num_vls:1 ()
  in
  let r = Verify.check table in
  Alcotest.(check bool) "connected" true r.Verify.connected;
  Alcotest.(check bool) "cycle free paths" true r.Verify.cycle_free;
  Alcotest.(check bool) "but deadlock prone" false r.Verify.deadlock_free;
  (match r.Verify.dependency_cycle with
   | Some cycle -> Alcotest.(check bool) "cycle witness" true (List.length cycle >= 3)
   | None -> Alcotest.fail "expected a dependency cycle witness")

let verify_vls_break_deadlock () =
  (* The same clockwise ring routing becomes deadlock-free when each
     destination gets its own virtual lane... it does not in general,
     but splitting the one ring cycle across enough lanes does. Here:
     per-dest lanes leave each lane's CDG a path, which is acyclic. *)
  let net = Helpers.ring ~terminals:1 4 in
  let terms = Network.terminals net in
  let nn = Network.num_nodes net in
  let next_channel =
    Array.map
      (fun dest ->
         let dw = Network.terminal_attachment net dest in
         let nexts = Array.make nn (-1) in
         for i = 0 to 3 do
           if i = dw then
             nexts.(i) <- Option.get (Network.find_channel net i dest)
           else
             nexts.(i) <- Option.get (Network.find_channel net i ((i + 1) mod 4))
         done;
         Array.iter
           (fun t -> if t <> dest then nexts.(t) <- (Network.out_channels net t).(0))
           terms;
         nexts)
      terms
  in
  let vl = Array.init (Array.length terms) (fun i -> i) in
  let table =
    Table.make ~net ~algorithm:"clockwise-vl" ~dests:terms ~next_channel
      ~vl:(Table.Per_dest vl) ~num_vls:(Array.length terms) ()
  in
  Alcotest.(check bool) "per-dest lanes deadlock-free" true
    (Verify.deadlock_free table)

let verify_misdirected_hop_is_dead_end () =
  (* t4's hop toward t6 is overwritten with s2 -> t6: following that
     channel's head lands on t6, but the hop does not leave t4, so no
     packet can take it. *)
  let net = Helpers.ring ~terminals:1 4 in
  let routed = Minhop.route net in
  let pos = Table.dest_position routed 6 in
  Alcotest.(check (pair int int)) "channel 13 is s2 -> t6" (2, 6)
    (Network.src net 13, Network.dst net 13);
  let next_channel = Array.map Array.copy routed.Table.next_channel in
  next_channel.(pos).(4) <- 13;
  let table =
    Table.make ~net ~algorithm:"misdirected" ~dests:routed.Table.dests
      ~next_channel ~vl:Table.All_zero ~num_vls:1 ()
  in
  let r = Verify.check table in
  Alcotest.(check int) "one unreachable pair" 1 r.Verify.unreachable_pairs;
  Alcotest.(check bool) "not connected" false r.Verify.connected;
  Alcotest.(check bool) "a dead end, not a loop" true r.Verify.cycle_free;
  Alcotest.(check bool) "connected agrees" false (Verify.connected table);
  Alcotest.(check bool) "no path" true (Table.path table ~src:4 ~dest:6 = None);
  Alcotest.(check bool) "no path with lanes" true
    (Table.path_with_vls table ~src:4 ~dest:6 = None);
  (* The same hop at s0: t4's path stops there, before any pair. *)
  let row = Array.copy routed.Table.next_channel.(pos) in
  row.(0) <- 13;
  Alcotest.(check (list (pair int int))) "path edges stop at s0" []
    (Layers.path_edges net ~nexts:row ~dest:6 ~src:4);
  (* The simulator refuses the same route when it sets up. *)
  match
    Nue_sim.Sim.run table
      ~traffic:[ { Nue_sim.Traffic.src = 4; dst = 6; bytes = 64 } ]
  with
  | _ -> Alcotest.fail "Sim.run accepted a hop that does not leave its node"
  | exception Invalid_argument _ -> ()

(* The same 4-ring, with the row toward t6 broken three ways: a hop that
   does not leave its node, a dead end at s0, and a loop between s0 and
   its next switch. Every statistic reads the walk [Verify] reads, so
   each counts the pairs [Verify] finds unreachable, and the loads are
   those of the 12 - 1, 12 - 1 and 12 - 2 pairs that still reach. *)
let statistics_agree_with_verify_on_broken_tables () =
  let net = Helpers.ring ~terminals:1 4 in
  let routed = Minhop.route net in
  let pos = Table.dest_position routed 6 in
  let s1 = Network.dst net routed.Table.next_channel.(pos).(0) in
  let back = Option.get (Network.find_channel net s1 0) in
  List.iter
    (fun (name, edit, unreachable, total) ->
       let next_channel = Array.map Array.copy routed.Table.next_channel in
       edit next_channel.(pos);
       let t =
         Table.make ~net ~algorithm:name ~dests:routed.Table.dests
           ~next_channel ~vl:Table.All_zero ~num_vls:1 ()
       in
       let r = Verify.check t and p = Pathstats.of_stats (Verify.stats t) in
       Alcotest.(check int) (name ^ ": verify") unreachable
         r.Verify.unreachable_pairs;
       Alcotest.(check int) (name ^ ": pathstats") unreachable
         p.Pathstats.unreachable;
       Alcotest.(check int) (name ^ ": pairs") (12 - unreachable)
         p.Pathstats.pairs;
       Alcotest.(check int) (name ^ ": total load") total
         (Array.fold_left ( + ) 0 (Forwarding_index.per_channel t)))
    [ ("misdirected hop", (fun row -> row.(4) <- 13), 1, 36);
      ("dead end", (fun row -> row.(0) <- -1), 1, 36);
      ("loop", (fun row -> row.(s1) <- back), 2, 33) ]

(* {2 Reference verifier}

   A pair-by-pair reference for [Verify]: each (source, destination)
   pair is walked on its own, and a hop whose channel does not leave its
   node is a dead end. *)

type fate = Reaches | Dead_end | Loops

(* The pair's walk: the nodes it passes with a hop that leaves them, in
   order, and how it ends. *)
let reference_walk (t : Table.t) ~src ~dest =
  let nexts = t.Table.next_channel.(Table.dest_position t dest) in
  let rec go node seen =
    if node = dest then (List.rev seen, Reaches)
    else if List.mem node seen then (List.rev seen, Loops)
    else begin
      let c = nexts.(node) in
      if c < 0 || Network.src t.Table.net c <> node then
        (List.rev seen, Dead_end)
      else go (Network.dst t.Table.net c) (node :: seen)
    end
  in
  go src []

(* Report and induced VCDG, pair by pair. With the whole destination
   tree on one VL, every walked hop depends on the next node's hop,
   whether or not the pair reaches; with per-pair or per-hop lanes,
   only the hops of [Table.path_with_vls] of reaching pairs. *)
let reference_verify (t : Table.t) =
  let net = t.Table.net in
  let nc = Network.num_channels net in
  let g = Nue_cdg.Digraph.create (nc * max 1 t.Table.num_vls) in
  let add a b =
    if not (Nue_cdg.Digraph.mem_edge g a b) then Nue_cdg.Digraph.add_edge g a b
  in
  let unreachable = ref 0 and cycle_free = ref true in
  Array.iteri
    (fun pos dest ->
       let nexts = t.Table.next_channel.(pos) in
       Array.iter
         (fun src ->
            if src <> dest then begin
              let walked, fate = reference_walk t ~src ~dest in
              if fate <> Reaches then incr unreachable;
              if fate = Loops then cycle_free := false;
              match t.Table.vl with
              | Table.All_zero | Table.Per_dest _ ->
                let vl = Table.vl_of t ~src ~dest ~hop:0 ~channel:0 in
                List.iter
                  (fun x ->
                     let c1 = nexts.(x) in
                     let m = Network.dst net c1 in
                     let c2 = nexts.(m) in
                     if m <> dest && c2 >= 0 && Network.src net c2 = m then
                       add ((vl * nc) + c1) ((vl * nc) + c2))
                  walked
              | Table.Per_pair _ | Table.Per_hop _ ->
                if fate = Reaches then begin
                  let hops = Option.get (Table.path_with_vls t ~src ~dest) in
                  Alcotest.(check (list int)) "Table.path agrees" walked
                    (List.map (fun (c, _) -> Network.src net c) hops);
                  let rec deps = function
                    | (c1, v1) :: ((c2, v2) :: _ as rest) ->
                      add ((v1 * nc) + c1) ((v2 * nc) + c2);
                      deps rest
                    | _ -> ()
                  in
                  deps hops
                end
            end)
         (Network.terminals net))
    t.Table.dests;
  (!unreachable, !cycle_free, g)

(* Per-pair loads reference: each source's path to [dests.(pos)] is
   walked hop by hop, charging only the pairs [reference_walk] finds
   reaching. *)
let reference_loads (t : Table.t) pos =
  let net = t.Table.net in
  let dest = t.Table.dests.(pos) and nexts = t.Table.next_channel.(pos) in
  let loads = Array.make (Network.num_channels net) 0 in
  Array.iter
    (fun src ->
       if src <> dest && snd (reference_walk t ~src ~dest) = Reaches then begin
         let node = ref src in
         while !node <> dest do
           let c = nexts.(!node) in
           loads.(c) <- loads.(c) + 1;
           node := Network.dst net c
         done
       end)
    (Network.terminals net);
  loads

(* Path lengths of the reaching pairs, pair by pair. *)
let reference_pathstats (t : Table.t) =
  let max_hops = ref 0 and total = ref 0 and pairs = ref 0 in
  let unreachable = ref 0 in
  Array.iter
    (fun dest ->
       Array.iter
         (fun src ->
            if src <> dest then
              match reference_walk t ~src ~dest with
              | walked, Reaches ->
                let h = List.length walked in
                incr pairs;
                total := !total + h;
                max_hops := max !max_hops h
              | _ -> incr unreachable)
         (Network.terminals t.Table.net))
    t.Table.dests;
  { Pathstats.max_hops = !max_hops;
    avg_hops =
      (if !pairs = 0 then 0.0 else float_of_int !total /. float_of_int !pairs);
    pairs = !pairs;
    unreachable = !unreachable }

(* Per-channel loads, path lengths and each destination's balancing
   charges all agree with the references. *)
let statistics_match_reference (t : Table.t) =
  let net = t.Table.net in
  let nc = Network.num_channels net in
  let total = Array.make nc 0 in
  let charges_match =
    Array.for_all
      (fun pos ->
         let loads = reference_loads t pos in
         Array.iteri (fun c l -> total.(c) <- total.(c) + l) loads;
         let weights = Array.make nc 0.0 in
         Balance.update_weights net ~weights ~nexts:t.Table.next_channel.(pos)
           ~dest:t.Table.dests.(pos) ~sources:(Network.terminals net);
         weights = Array.map float_of_int loads)
      (Array.init (Array.length t.Table.dests) Fun.id)
  in
  charges_match
  && Forwarding_index.per_channel t = total
  && Pathstats.of_stats (Verify.stats t) = reference_pathstats t

let edges g =
  let acc = ref [] in
  for v = Nue_cdg.Digraph.num_vertices g - 1 downto 0 do
    let succ = ref [] in
    Nue_cdg.Digraph.iter_succ g v (fun w ->
        succ := (v, w, Nue_cdg.Digraph.multiplicity g v w) :: !succ);
    acc := List.rev_append !succ !acc
  done;
  !acc

(* Up to three injected faults per kind: a forwarding loop (a hop to a
   random neighbour), a dead end, and a hop on a channel chosen from the
   whole network, usually one that does not leave the node. *)
let mutate prng (t : Table.t) ~vl ~num_vls =
  let net = t.Table.net in
  let nn = Network.num_nodes net and nc = Network.num_channels net in
  let next_channel = Array.map Array.copy t.Table.next_channel in
  let nd = Array.length t.Table.dests in
  for _ = 1 to Prng.int prng 4 do
    let row = next_channel.(Prng.int prng nd) and node = Prng.int prng nn in
    match Prng.int prng 3 with
    | 0 ->
      let out = Network.out_channels net node in
      if Array.length out > 0 then
        row.(node) <- out.(Prng.int prng (Array.length out))
    | 1 -> row.(node) <- -1
    | _ -> row.(node) <- Prng.int prng nc
  done;
  Table.make ~net ~algorithm:t.Table.algorithm ~dests:t.Table.dests
    ~next_channel ~vl ~num_vls ()

let qcheck_verify_matches_reference =
  QCheck2.Test.make ~name:"verify: one walk per destination matches pairs"
    ~count:40
    QCheck2.Gen.(pair Helpers.arbitrary_net (int_range 0 100000))
    (fun (net, seed) ->
       let prng = Prng.create seed in
       let nn = Network.num_nodes net in
       let minhop = Minhop.route net in
       let nue = Nue_core.Nue.route ~vcs:2 net in
       let nd = Array.length minhop.Table.dests in
       let lanes =
         [ (minhop, Table.All_zero, 1);
           (nue, nue.Table.vl, nue.Table.num_vls);
           ( minhop,
             Table.Per_pair
               (Array.init nd (fun _ ->
                    Array.init nn (fun _ -> Prng.int prng 3))),
             3 );
           ( minhop,
             Table.Per_hop
               (fun ~src ~dest ~hop ~channel ->
                  (src + dest + hop + channel) mod 3),
             3 ) ]
       in
       let nc = Network.num_channels net in
       List.for_all
         (fun (engine, vl, num_vls) ->
            let t = mutate prng engine ~vl ~num_vls in
            let unreachable, cycle_free, g = reference_verify t in
            let cycle = Nue_cdg.Digraph.find_cycle g in
            let r = Verify.check t in
            let vcdg = Verify.induced_vcdg t in
            r.Verify.unreachable_pairs = unreachable
            && r.Verify.connected = (unreachable = 0)
            && r.Verify.cycle_free = cycle_free
            && r.Verify.deadlock_free = (cycle = None)
            && r.Verify.dependency_cycle
               = Option.map (List.map (fun v -> (v mod nc, v / nc))) cycle
            && Verify.connected t = (unreachable = 0)
            && Verify.deadlock_free t = (cycle = None)
            && edges vcdg = edges g
            && Nue_cdg.Digraph.find_cycle vcdg = cycle
            && statistics_match_reference t)
         lanes)

(* Nue at 4 VCs on the 6x6x6 torus with 2 terminals per switch: 186k
   (source, destination) pairs. *)
let torus_nue = lazy (
  let net = (Topology.torus3d ~dims:(6, 6, 6) ~terminals_per_switch:2 ()).net in
  Nue_core.Nue.route ~vcs:4 net)

(* [f] allocates O(nodes + channels x VLs) words, however many pairs the
   table routes, and reports the table valid. *)
let allocation_bounded name f () =
  let table = Lazy.force torus_nue in
  let net = table.Table.net in
  let size =
    Network.num_nodes net + (Network.num_channels net * table.Table.num_vls)
  in
  let before = Nue_parallel.Pool.default_jobs () in
  Nue_parallel.Pool.set_default_jobs 1;
  let r, words =
    Fun.protect
      ~finally:(fun () -> Nue_parallel.Pool.set_default_jobs before)
      (fun () -> Helpers.words_allocated (fun () -> f table))
  in
  Alcotest.(check bool) "valid" true
    (r.Verify.connected && r.Verify.cycle_free && r.Verify.deadlock_free);
  if words > float_of_int (64 * size) then
    Alcotest.failf "%s allocated %.0f words, bound 64 x %d" name words size

(* The check allocates its walk, the induced VCDG and the cycle search. *)
let verify_check_allocation_bounded =
  allocation_bounded "Verify.check" (fun t -> Verify.check t)

(* Measuring reads the report and every statistic from the same walk,
   adding only the per-channel loads. *)
let measure_allocation_bounded =
  allocation_bounded "Experiment.measure" (fun t ->
      (Nue_pipeline.Experiment.measure t).Nue_pipeline.Experiment.verify)

(* {1 Layers} *)

let layers_ring_needs_two () =
  (* Clockwise routing on a ring needs a second layer to break the one
     dependency cycle. *)
  let net = Helpers.ring ~terminals:1 6 in
  let terms = Network.terminals net in
  let nn = Network.num_nodes net in
  let next_channel =
    Array.map
      (fun dest ->
         let dw = Network.terminal_attachment net dest in
         let nexts = Array.make nn (-1) in
         for i = 0 to 5 do
           if i = dw then
             nexts.(i) <- Option.get (Network.find_channel net i dest)
           else
             nexts.(i) <- Option.get (Network.find_channel net i ((i + 1) mod 6))
         done;
         Array.iter
           (fun t -> if t <> dest then nexts.(t) <- (Network.out_channels net t).(0))
           terms;
         nexts)
      terms
  in
  let { Layers.vl; layers_used } =
    Layers.assign net ~dests:terms ~next_channel ~sources:terms
  in
  (* Two layers are necessary; the greedy heuristic may use a couple
     more because whole paths move together (real DFSSSP behaves the
     same way). *)
  Alcotest.(check bool) "between 2 and 4 layers" true
    (layers_used >= 2 && layers_used <= 4);
  let layered =
    Table.make ~net ~algorithm:"ring-layered" ~dests:terms ~next_channel
      ~vl:(Table.Per_pair vl) ~num_vls:layers_used ()
  in
  Alcotest.(check bool) "layers break the ring's cycle" true
    (Verify.deadlock_free layered)

let layers_tree_needs_one () =
  let net = Helpers.line 5 in
  let table = Minhop.route net in
  let { Layers.layers_used; _ } =
    Layers.assign net ~dests:table.Table.dests
      ~next_channel:table.Table.next_channel
      ~sources:(Network.terminals net)
  in
  Alcotest.(check int) "trees are deadlock-free" 1 layers_used

let layers_assignment_is_deadlock_free () =
  let t = Helpers.small_torus () in
  let net = t.Topology.net in
  let table = Minhop.route net in
  let terms = Network.terminals net in
  let { Layers.vl; layers_used } =
    Layers.assign net ~dests:table.Table.dests
      ~next_channel:table.Table.next_channel ~sources:terms
  in
  Alcotest.(check bool) "uses >= 2 layers on a torus" true (layers_used >= 2);
  let layered =
    Table.make ~net ~algorithm:"minhop-layered" ~dests:table.Table.dests
      ~next_channel:table.Table.next_channel ~vl:(Table.Per_pair vl)
      ~num_vls:layers_used ()
  in
  Alcotest.(check bool) "layered table deadlock-free" true
    (Verify.deadlock_free layered)

(* {1 MinHop} *)

let minhop_shortest () =
  let net = Helpers.random_net () in
  let table = Minhop.route net in
  let terms = Network.terminals net in
  Array.iter
    (fun dest ->
       let bfs = Nue_netgraph.Graph_algo.bfs_distances net dest in
       Array.iter
         (fun src ->
            if src <> dest then
              match Option.map List.length (Table.path table ~src ~dest) with
              | Some h -> Alcotest.(check int) "minimal" bfs.(src) h
              | None -> Alcotest.fail "unreachable")
         terms)
    terms

let minhop_valid_on_tree () =
  Helpers.check_table_valid "minhop/line" (Minhop.route (Helpers.line 6))

(* {1 Up*/Down*} *)

let updown_deadlock_free_everywhere () =
  let nets =
    [ ("ring5", Helpers.ring5 ());
      ("ring8", Helpers.ring ~terminals:2 8);
      ("torus", (Helpers.small_torus ()).Topology.net);
      ("random", Helpers.random_net ()) ]
  in
  List.iter
    (fun (name, net) ->
       let table = Updown.route net in
       Helpers.check_table_valid ("updown/" ^ name) table;
       Alcotest.(check int) (name ^ " single VL") 1 table.Table.num_vls)
    nets

let updown_paths_legal () =
  (* No up move after a down move, with levels from the chosen root. *)
  let net = Helpers.random_net ~seed:3 () in
  let root = 0 in
  let table = Updown.route ~root net in
  let level = Nue_netgraph.Graph_algo.bfs_distances net root in
  let is_down c =
    let u = Network.src net c and v = Network.dst net c in
    level.(v) > level.(u) || (level.(v) = level.(u) && v > u)
  in
  let terms = Network.terminals net in
  Array.iter
    (fun dest ->
       Array.iter
         (fun src ->
            if src <> dest then
              match Table.path table ~src ~dest with
              | None -> Alcotest.fail "unreachable"
              | Some p ->
                let gone_down = ref false in
                List.iter
                  (fun c ->
                     if is_down c then gone_down := true
                     else if !gone_down then
                       Alcotest.fail "up after down")
                  p)
         terms)
    terms

(* {1 DFSSSP} *)

let dfsssp_small_tree_one_vl () =
  let net = Helpers.line 4 in
  match Dfsssp.route_structured net with
  | Error e -> Alcotest.fail (Engine_error.to_string e)
  | Ok table ->
    Alcotest.(check int) "1 VL on a tree" 1 table.Table.num_vls;
    Helpers.check_table_valid "dfsssp/line" table

let dfsssp_torus_valid () =
  let t = Helpers.small_torus () in
  match Dfsssp.route_structured t.Topology.net with
  | Error e -> Alcotest.fail (Engine_error.to_string e)
  | Ok table ->
    Helpers.check_table_valid "dfsssp/torus" table;
    Alcotest.(check bool) "torus needs >= 2 VLs" true (table.Table.num_vls >= 2)

let dfsssp_respects_vl_budget () =
  let t = Helpers.small_torus () in
  let needed = Dfsssp.required_vcs t.Topology.net in
  Alcotest.(check bool) "budget below requirement fails" true
    (match Dfsssp.route_structured ~max_vls:(needed - 1) t.Topology.net with
     | Error _ -> true
     | Ok _ -> false)

let dfsssp_paths_shortest () =
  (* The first destination is routed before any weight update, so its
     paths are hop-minimal; later destinations may trade hops for
     balance (bounded stretch). *)
  let net = Helpers.random_net ~seed:8 () in
  match Dfsssp.route_structured net with
  | Error e -> Alcotest.fail (Engine_error.to_string e)
  | Ok table ->
    let terms = Network.terminals net in
    let first = table.Table.dests.(0) in
    let bfs = Nue_netgraph.Graph_algo.bfs_distances net first in
    Array.iter
      (fun src ->
         if src <> first then
           match Option.map List.length (Table.path table ~src ~dest:first) with
           | Some h -> Alcotest.(check int) "first dest minimal" bfs.(src) h
           | None -> Alcotest.fail "unreachable")
      terms;
    let stats =
      Nue_metrics.Pathstats.of_stats (Nue_routing.Verify.stats table)
    in
    Alcotest.(check bool) "bounded stretch" true
      (stats.Nue_metrics.Pathstats.max_hops <= 12)

(* Two switches joined by two parallel duplex links, [t] terminals on
   each. Every cross-switch path is two hops whichever link it takes, so
   only the loads of the destinations routed before decide. *)
let twin_link_net t =
  let b = Network.Builder.create ~name:"twin-link" () in
  let a = Network.Builder.add_switch b and z = Network.Builder.add_switch b in
  Network.Builder.connect b a z;
  Network.Builder.connect b a z;
  List.iter
    (fun sw ->
       for _ = 1 to t do
         Network.Builder.connect b sw (Network.Builder.add_terminal b)
       done)
    [ a; z ];
  Network.Builder.build b

let sssp_splits_parallel_links () =
  List.iter
    (fun t ->
       let net = twin_link_net t in
       let loads = Forwarding_index.per_channel (Dfsssp.paths_only net) in
       let between =
         List.filter
           (fun c -> Network.is_switch net (Network.dst net c))
           (Array.to_list (Network.out_channels net 0)
            @ Array.to_list (Network.out_channels net 1))
       in
       Alcotest.(check int) "four switch-to-switch channels" 4
         (List.length between);
       (* t * t pairs cross in each direction, half on each link. *)
       List.iter
         (fun c ->
            Alcotest.(check int)
              (Printf.sprintf "t=%d: load of channel %d" t c)
              (t * t / 2) loads.(c))
         between)
    [ 4; 8 ]

(* {1 LASH} *)

let lash_valid_and_layered () =
  (* A 6-ring forces ring segments of length >= 2, so LASH cannot fit
     everything into one acyclic layer. (A 3x3x3 torus can: all ring
     distances are 1.) *)
  let net = Helpers.ring ~terminals:1 6 in
  match Lash.route_structured net with
  | Error e -> Alcotest.fail (Engine_error.to_string e)
  | Ok table ->
    Helpers.check_table_valid "lash/ring6" table;
    Alcotest.(check bool) "at least 2 layers" true (table.Table.num_vls >= 2);
    (* And the 3x3x3 torus stays valid whatever the layer count. *)
    (match Lash.route_structured (Helpers.small_torus ()).Topology.net with
     | Error e -> Alcotest.fail (Engine_error.to_string e)
     | Ok t -> Helpers.check_table_valid "lash/torus333" t)

let lash_tree_single_layer () =
  let net = Helpers.line 5 in
  match Lash.route_structured net with
  | Error e -> Alcotest.fail (Engine_error.to_string e)
  | Ok table ->
    Alcotest.(check int) "1 layer" 1 table.Table.num_vls;
    Helpers.check_table_valid "lash/line" table

let lash_budget_failure () =
  let net = Helpers.ring ~terminals:1 6 in
  let needed = Lash.required_vcs net in
  Alcotest.(check bool) "needs >= 2" true (needed >= 2);
  match Lash.route_structured ~max_vls:1 net with
  | Error e ->
    Alcotest.(check bool) "mentions requirement" true
      (String.length (Engine_error.to_string e) > 0)
  | Ok _ -> Alcotest.fail "expected failure with 1 VL"

(* {1 Torus-2QoS} *)

let torus2qos_intact () =
  let torus = Helpers.torus443 () in
  let remap = Fault.identity torus.Topology.net in
  match Torus2qos.route_structured ~torus ~remap () with
  | Error e -> Alcotest.fail (Engine_error.to_string e)
  | Ok table ->
    Helpers.check_table_valid "torus2qos/intact" table;
    (* DOR on an intact torus is minimal in each dimension-ring. *)
    let terms = Network.terminals torus.Topology.net in
    (match
       Option.map List.length
         (Table.path table ~src:terms.(0) ~dest:terms.(1))
     with
     | Some h -> Alcotest.(check bool) "short path" true (h <= 3)
     | None -> Alcotest.fail "unreachable")

let torus2qos_single_failure () =
  let torus = Helpers.torus443 () in
  let remap = Fault.remove_switches torus.Topology.net [ 5 ] in
  match Torus2qos.route_structured ~torus ~remap () with
  | Error e -> Alcotest.fail (Engine_error.to_string e)
  | Ok table -> Helpers.check_table_valid "torus2qos/1-switch-fault" table

let torus2qos_link_failure () =
  let torus = Helpers.torus443 () in
  let remap = Fault.remove_links torus.Topology.net [ (0, 1) ] in
  match Torus2qos.route_structured ~torus ~remap () with
  | Error e -> Alcotest.fail (Engine_error.to_string e)
  | Ok table -> Helpers.check_table_valid "torus2qos/1-link-fault" table

let torus2qos_double_ring_failure_fails () =
  (* Two failures inside one x-ring cut all progress for some pairs. *)
  let torus = Topology.torus3d ~dims:(5, 3, 3) ~terminals_per_switch:1 () in
  let s a b c = torus.Topology.switch_of_coord.(a).(b).(c) in
  (* Remove two links of the x-ring at y=0,z=0, islanding coordinate
     x=1 within its ring. *)
  let remap =
    Fault.remove_links torus.Topology.net [ (s 0 0 0, s 1 0 0); (s 1 0 0, s 2 0 0) ]
  in
  match Torus2qos.route_structured ~torus ~remap () with
  | Error _ -> ()
  | Ok table ->
    (* If the dimension-reordering fallback still routed it, the result
       must at least be valid. *)
    Helpers.check_table_valid "torus2qos/2-faults" table

(* Both outcomes of the reordered-class check. On a 4x4x3 torus,
   killing switches 0 and 1 forces dimension reordering whose
   dependencies stay acyclic (4 VLs); killing 0 and 16 forces a
   reordering whose dependencies close a cycle. *)
let torus2qos_reordered_class () =
  let torus = Topology.torus3d ~dims:(4, 4, 3) ~terminals_per_switch:1 () in
  let route dead =
    Torus2qos.route_structured ~torus
      ~remap:(Fault.remove_switches torus.Topology.net dead) ()
  in
  (match route [ 0; 1 ] with
   | Error e -> Alcotest.fail (Engine_error.to_string e)
   | Ok table ->
     Alcotest.(check int) "reordered class on 4 VLs" 4 table.Table.num_vls;
     Helpers.check_table_valid "torus2qos/reordered" table);
  match route [ 0; 16 ] with
  | Error (Engine_error.Unroutable msg) ->
    Alcotest.(check string) "cycle verdict"
      "torus2qos: fault pattern requires dimension reordering whose \
       dependencies close a cycle (beyond Torus-2QoS's envelope)"
      msg
  | Error e -> Alcotest.fail (Engine_error.to_string e)
  | Ok _ -> Alcotest.fail "cyclic reordered class routed"

(* {1 Fat-tree} *)

let fattree_valid () =
  let net = Topology.kary_ntree ~k:4 ~n:3 ~terminals_per_leaf:3 () in
  match Fattree.route_structured ~k:4 ~n:3 net with
  | Error e -> Alcotest.fail (Engine_error.to_string e)
  | Ok table ->
    Helpers.check_table_valid "fattree/4-ary-3-tree" table;
    Alcotest.(check int) "single VL" 1 table.Table.num_vls

let fattree_shortest () =
  let net = Topology.kary_ntree ~k:3 ~n:2 ~terminals_per_leaf:2 () in
  match Fattree.route_structured ~k:3 ~n:2 net with
  | Error e -> Alcotest.fail (Engine_error.to_string e)
  | Ok table ->
    let terms = Network.terminals net in
    Array.iter
      (fun dest ->
         let bfs = Nue_netgraph.Graph_algo.bfs_distances net dest in
         Array.iter
           (fun src ->
              if src <> dest then
                match Option.map List.length (Table.path table ~src ~dest) with
                | Some h -> Alcotest.(check int) "minimal" bfs.(src) h
                | None -> Alcotest.fail "unreachable")
           terms)
      terms

let fattree_rejects_other_topologies () =
  let net = Helpers.ring5 () in
  Alcotest.(check bool) "rejected" true
    (match Fattree.route_structured ~k:4 ~n:3 net with Error _ -> true | Ok _ -> false)

let suite =
  [ ("table",
     [ test_case "paths" `Quick table_paths;
       test_case "destination-based population" `Quick
         table_next_is_destination_based;
       test_case "vl schemes" `Quick table_vl_schemes ]);
    ( "balance",
      [ test_case "channel loads" `Quick balance_loads;
        test_case "walk of another network" `Quick
          balance_walk_of_another_network ] );
    ("verify",
     [ test_case "accepts valid" `Quick verify_accepts_valid;
       test_case "detects forwarding loop" `Quick verify_detects_forwarding_loop;
       test_case "detects dependency cycle" `Quick verify_detects_deadlock;
       test_case "virtual lanes break the cycle" `Quick verify_vls_break_deadlock;
       test_case "a hop that does not leave its node is a dead end" `Quick
         verify_misdirected_hop_is_dead_end;
       test_case "statistics agree with verify on broken tables" `Quick
         statistics_agree_with_verify_on_broken_tables;
       QCheck_alcotest.to_alcotest qcheck_verify_matches_reference;
       test_case "allocation independent of pairs" `Quick
         verify_check_allocation_bounded;
       test_case "measure allocation independent of pairs" `Quick
         measure_allocation_bounded ]);
    ("layers",
     [ test_case "ring needs two" `Quick layers_ring_needs_two;
       test_case "tree needs one" `Quick layers_tree_needs_one;
       test_case "assignment deadlock-free" `Quick
         layers_assignment_is_deadlock_free ]);
    ("minhop",
     [ test_case "shortest paths" `Quick minhop_shortest;
       test_case "valid on a tree" `Quick minhop_valid_on_tree ]);
    ("updown",
     [ test_case "deadlock-free everywhere" `Quick updown_deadlock_free_everywhere;
       test_case "paths are up*/down* legal" `Quick updown_paths_legal ]);
    ("dfsssp",
     [ test_case "tree needs one VL" `Quick dfsssp_small_tree_one_vl;
       test_case "valid on torus" `Quick dfsssp_torus_valid;
       test_case "respects VL budget" `Quick dfsssp_respects_vl_budget;
       test_case "shortest paths" `Quick dfsssp_paths_shortest;
       test_case "sssp splits equal-hop paths over parallel links" `Quick
         sssp_splits_parallel_links ]);
    ("lash",
     [ test_case "valid and layered" `Quick lash_valid_and_layered;
       test_case "tree single layer" `Quick lash_tree_single_layer;
       test_case "budget failure" `Quick lash_budget_failure ]);
    ("torus2qos",
     [ test_case "intact torus" `Quick torus2qos_intact;
       test_case "single switch failure" `Quick torus2qos_single_failure;
       test_case "single link failure" `Quick torus2qos_link_failure;
       test_case "double ring failure" `Quick torus2qos_double_ring_failure_fails;
       test_case "reordered class: acyclic and cyclic" `Quick torus2qos_reordered_class ]);
    ("fattree",
     [ test_case "valid" `Quick fattree_valid;
       test_case "shortest" `Quick fattree_shortest;
       test_case "rejects other topologies" `Quick fattree_rejects_other_topologies ]) ]
