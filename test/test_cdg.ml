(* Tests for lib/cdg: digraphs and the complete channel dependency graph
   with its edge states and its Pearce-Kelly order, under Nue's
   Algorithm 3 and under LASH's all-or-nothing admission of a path. *)

module Network = Nue_netgraph.Network
module Digraph = Nue_cdg.Digraph
module Complete_cdg = Nue_cdg.Complete_cdg
module Prng = Nue_structures.Prng
module Topology = Nue_netgraph.Topology

let test_case = Alcotest.test_case

(* {1 Digraph} *)

let digraph_edges () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 1;
  Alcotest.(check int) "multiplicity" 2 (Digraph.multiplicity g 0 1);
  Alcotest.(check int) "distinct edges" 1 (Digraph.num_edges g);
  Digraph.remove_edge g 0 1;
  Alcotest.(check bool) "still there" true (Digraph.mem_edge g 0 1);
  Digraph.remove_edge g 0 1;
  Alcotest.(check bool) "gone" false (Digraph.mem_edge g 0 1);
  Alcotest.(check bool) "remove absent raises" true
    (match Digraph.remove_edge g 0 1 with
     | exception Invalid_argument _ -> true
     | _ -> false)

let digraph_acyclic_dag () =
  let g = Digraph.create 5 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 2 3;
  Alcotest.(check bool) "dag" true (Digraph.is_acyclic g);
  Alcotest.(check (option (list int))) "no cycle" None (Digraph.find_cycle g)

let digraph_finds_cycle () =
  let g = Digraph.create 5 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 0;
  Digraph.add_edge g 3 4;
  (match Digraph.find_cycle g with
   | None -> Alcotest.fail "expected a cycle"
   | Some vs ->
     Alcotest.(check int) "cycle length" 3 (List.length vs);
     (* Consecutive vertices are edges and the cycle closes. *)
     let arr = Array.of_list vs in
     let n = Array.length arr in
     for i = 0 to n - 1 do
       Alcotest.(check bool) "edge exists" true
         (Digraph.mem_edge g arr.(i) arr.((i + 1) mod n))
     done)

let digraph_self_loop_cycle () =
  let g = Digraph.create 2 in
  Digraph.add_edge g 1 1;
  Alcotest.(check bool) "self loop is a cycle" false (Digraph.is_acyclic g)

(* Offline oracle for "u -> v closes a cycle" in an acyclic digraph:
   add the edge, ask for a cycle, take the edge back out. *)
let closes_cycle g u v =
  Digraph.add_edge g u v;
  let cyclic = not (Digraph.is_acyclic g) in
  Digraph.remove_edge g u v;
  cyclic

(* {1 Complete CDG} *)

(* Successors of [c], in the CDG's order. *)
let succs cdg c =
  let l = ref [] in
  Complete_cdg.iter_succ cdg c (fun q -> l := q :: !l);
  Array.of_list (List.rev !l)

(* A random U-turn-free walk of up to [k] dependencies from channel [c],
   its last step first. *)
let random_walk cdg p c k =
  let rec walk c k acc =
    let succ = succs cdg c in
    if k = 0 || Array.length succ = 0 then acc
    else begin
      let q = succ.(Prng.int p (Array.length succ)) in
      walk q (k - 1) ((c, q) :: acc)
    end
  in
  walk c k []

let cdg_fig3_structure () =
  (* Fig. 3: the complete CDG of the 5-ring with shortcut has 12
     vertices (channels) and 18 dependency edges. *)
  let net = Helpers.ring5 ~with_terminals:false () in
  let cdg = Complete_cdg.create net in
  Alcotest.(check int) "12 channels" 12 (Complete_cdg.num_channels cdg);
  Alcotest.(check int) "18 dependencies" 18 (Complete_cdg.num_edges cdg);
  (* Everything starts unused. *)
  let used = ref 0 and blocked = ref 0 and unused = ref 0 in
  Complete_cdg.count_states cdg ~used ~blocked ~unused;
  Alcotest.(check int) "no used" 0 !used;
  Alcotest.(check int) "no blocked" 0 !blocked;
  Alcotest.(check int) "all unused" 18 !unused

let cdg_no_u_turns () =
  let net = Helpers.random_net () in
  let cdg = Complete_cdg.create net in
  for c = 0 to Complete_cdg.num_channels cdg - 1 do
    Complete_cdg.iter_succ cdg c (fun q ->
        Alcotest.(check bool) "no 180-degree turn" false
          (Network.dst net q = Network.src net c))
  done

(* Definition 6 by brute force over all channel pairs: c -> q is an edge
   iff q leaves the node c enters and does not return to c's source.
   The derived CDG must agree on every pair, list each channel's
   successors and predecessors in ascending id (the order of the
   network's adjacency), count the same edges, and start with all of
   them unused. *)
let definition6_holds net =
  let cdg = Complete_cdg.create net in
  let nc = Network.num_channels net in
  let edge c q =
    Network.dst net c = Network.src net q
    && Network.dst net q <> Network.src net c
  in
  let listed iter c =
    let l = ref [] in
    iter cdg c (fun x -> l := x :: !l);
    List.rev !l
  in
  let all = List.init nc Fun.id in
  let edges = ref 0 and ok = ref true in
  for c = 0 to nc - 1 do
    let succ = List.filter (edge c) all in
    let pred = List.filter (fun a -> edge a c) all in
    edges := !edges + List.length succ;
    if listed Complete_cdg.iter_succ c <> succ
       || listed Complete_cdg.iter_pred c <> pred
    then ok := false;
    List.iter
      (fun q ->
         if Complete_cdg.is_edge cdg ~from:c ~to_:q <> edge c q then
           ok := false)
      all
  done;
  let used = ref 0 and blocked = ref 0 and unused = ref 0 in
  Complete_cdg.count_states cdg ~used ~blocked ~unused;
  !ok && Complete_cdg.num_edges cdg = !edges
  && (!used, !blocked, !unused) = (0, 0, !edges)

let qcheck_definition6 =
  QCheck2.Test.make ~name:"Definition 6 by brute force" ~count:100
    Helpers.arbitrary_net definition6_holds

let cdg_definition6_parallel_links () =
  (* Redundancy 2 doubles every link, so each channel has a 180-degree
     turn over the parallel link as well as over its own. *)
  let net =
    Topology.kautz ~degree:2 ~diameter:2 ~terminals_per_switch:1
      ~redundancy:2 ()
  in
  let parallel_turns = ref 0 in
  for c = 0 to Network.num_channels net - 1 do
    Array.iter
      (fun q ->
         if Network.dst net q = Network.src net c && q <> Network.rev net c
         then incr parallel_turns)
      (Network.out_channels net (Network.dst net c))
  done;
  Alcotest.(check bool) "fixture has parallel links" true (!parallel_turns > 0);
  Alcotest.(check bool) "Definition 6 holds" true (definition6_holds net)

(* A pair that is not an edge has no state: every edge operation
   refuses it and leaves the CDG as it was. *)
let cdg_non_edges_raise () =
  let check name net ~admit ~from ~to_ =
    let cdg = Complete_cdg.create net in
    let a, b = admit in
    Alcotest.(check bool) (name ^ ": admitted") true
      (Complete_cdg.try_use_edge cdg ~from:a ~to_:b);
    Alcotest.(check bool) (name ^ ": not an edge") false
      (Complete_cdg.is_edge cdg ~from ~to_);
    let before = Complete_cdg.clone cdg in
    let raises f =
      match f cdg with exception Invalid_argument _ -> true | _ -> false
    in
    Alcotest.(check bool) (name ^ ": edge_omega raises") true
      (raises (fun g -> ignore (Complete_cdg.edge_omega g ~from ~to_)));
    Alcotest.(check bool) (name ^ ": try_use_edge raises") true
      (raises (fun g -> ignore (Complete_cdg.try_use_edge g ~from ~to_)));
    Alcotest.(check bool) (name ^ ": try_use_edge_v raises") true
      (raises (fun g -> ignore (Complete_cdg.try_use_edge_v g ~from ~to_)));
    Alcotest.(check bool) (name ^ ": release raises") true
      (raises (fun g -> Complete_cdg.release g ~from ~to_));
    let states g =
      let used = ref 0 and blocked = ref 0 and unused = ref 0 in
      Complete_cdg.count_states g ~used ~blocked ~unused;
      (!used, !blocked, !unused)
    in
    Alcotest.(check bool) (name ^ ": state untouched") true
      (states cdg = states before
       && Complete_cdg.edge_omega cdg ~from:a ~to_:b
          = Complete_cdg.edge_omega before ~from:a ~to_:b
       && Complete_cdg.cycle_searches cdg = Complete_cdg.cycle_searches before
       && List.for_all
            (fun c -> Complete_cdg.order cdg c = Complete_cdg.order before c)
            (List.init (Complete_cdg.num_channels cdg) Fun.id))
  in
  (* On a 4-ring, channel 0 (0->1) has the single successor 1->2; the
     only dependency of channel 1 (1->0) is onto 0->3. *)
  let ring = Helpers.ring ~terminals:0 4 in
  let chan u v = Option.get (Network.find_channel ring u v) in
  check "channels that do not meet" ring ~admit:(chan 1 0, chan 0 3)
    ~from:(chan 0 1) ~to_:(chan 0 3);
  check "180-degree turn" ring ~admit:(chan 1 0, chan 0 3) ~from:(chan 0 1)
    ~to_:(chan 1 0);
  (* Two parallel links a-b and a link b-c: a->b over one link, then
     back b->a over the other. *)
  let b = Network.Builder.create () in
  let sa = Network.Builder.add_switch b in
  let sb = Network.Builder.add_switch b in
  let sc = Network.Builder.add_switch b in
  Network.Builder.connect b sa sb;
  Network.Builder.connect b sa sb;
  Network.Builder.connect b sb sc;
  let net = Network.Builder.build b in
  let ab = Network.out_channels net sa in
  let back = Network.rev net ab.(1) in
  check "180-degree turn over a parallel link" net
    ~admit:(ab.(0), Option.get (Network.find_channel net sb sc))
    ~from:ab.(0) ~to_:back

(* [create] and [clone] allocate only routing state: a byte per edge
   slot (a slot per out-channel of each channel's head), seven words per
   channel of order, layout and scratch, and a fixed undo trail. A word
   per slot, let alone the edges themselves, would not fit: the tree has
   over 8 edges per channel. *)
let cdg_create_footprint () =
  let net = Topology.kary_ntree ~k:8 ~n:3 ~terminals_per_leaf:8 () in
  let nc = Network.num_channels net in
  let slots = ref 0 in
  for c = 0 to nc - 1 do
    slots := !slots + Network.degree net (Network.dst net c)
  done;
  let bound = (!slots / 8) + (8 * nc) + 2048 in
  let cdg, created =
    Helpers.words_allocated (fun () -> Complete_cdg.create net)
  in
  let _, cloned = Helpers.words_allocated (fun () -> Complete_cdg.clone cdg) in
  Alcotest.(check bool) "over 8 edges per channel" true
    (Complete_cdg.num_edges cdg > 8 * nc);
  List.iter
    (fun (name, words) ->
       Alcotest.(check bool)
         (Printf.sprintf
            "%s: %.0f words <= a byte per slot (%d) + 8 per channel (%d) + 2048"
            name words !slots nc)
         true
         (words <= float_of_int bound))
    [ ("create", created); ("clone", cloned) ]

let cdg_blocks_ring_closure () =
  (* Use the whole clockwise ring of a 4-ring: the last edge that would
     close the channel cycle must be blocked. *)
  let net = Helpers.ring ~terminals:0 4 in
  let cdg = Complete_cdg.create net in
  let chan u v = Option.get (Network.find_channel net u v) in
  let ring = [ chan 0 1; chan 1 2; chan 2 3; chan 3 0 ] in
  let rec use = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "chain edge ok" true
        (Complete_cdg.try_use_edge cdg ~from:a ~to_:b);
      use rest
    | _ -> ()
  in
  use ring;
  (* Closing dependency (3->0) -> (0->1). *)
  let a = chan 3 0 and b = chan 0 1 in
  Alcotest.(check bool) "closing edge refused" false
    (Complete_cdg.try_use_edge cdg ~from:a ~to_:b);
  Alcotest.(check int) "edge blocked" (-1)
    (Complete_cdg.edge_omega cdg ~from:a ~to_:b);
  Alcotest.(check bool) "used subgraph still acyclic" true
    (Complete_cdg.used_subgraph_acyclic cdg);
  Alcotest.(check bool) "at least one DFS ran" true
    (Complete_cdg.cycle_searches cdg >= 1)

(* An admission under a checkpoint is undone by the rollback: the edge
   is unused again, and asking again decides it again. *)
let cdg_rolled_back_admission () =
  let net = Helpers.ring ~terminals:0 4 in
  let cdg = Complete_cdg.create net in
  let chan u v = Option.get (Network.find_channel net u v) in
  let a = chan 0 1 and b = chan 1 2 in
  Complete_cdg.checkpoint cdg;
  Alcotest.(check bool) "usable" true
    (Complete_cdg.try_use_edge cdg ~from:a ~to_:b);
  Alcotest.(check int) "used under the checkpoint" 1
    (Complete_cdg.edge_omega cdg ~from:a ~to_:b);
  Complete_cdg.rollback cdg;
  Alcotest.(check int) "unused after the rollback" 0
    (Complete_cdg.edge_omega cdg ~from:a ~to_:b);
  Alcotest.(check int) "no query counted" 0 (Complete_cdg.cycle_searches cdg)

let cdg_random_usage_invariant () =
  (* Throw random edge-use requests at the CDG; the used subgraph must
     stay acyclic throughout (the Lemma 2 invariant). *)
  let net = Helpers.random_net ~switches:12 ~links:24 () in
  let cdg = Complete_cdg.create net in
  let p = Prng.create 31 in
  let nc = Complete_cdg.num_channels cdg in
  for _ = 1 to 500 do
    let c = Prng.int p nc in
    let succ = succs cdg c in
    if Array.length succ > 0 then begin
      let q = succ.(Prng.int p (Array.length succ)) in
      ignore (Complete_cdg.try_use_edge cdg ~from:c ~to_:q)
    end
  done;
  Alcotest.(check bool) "used subgraph acyclic" true
    (Complete_cdg.used_subgraph_acyclic cdg)

let cdg_blocked_stays_blocked () =
  let net = Helpers.ring ~terminals:0 3 in
  let cdg = Complete_cdg.create net in
  let chan u v = Option.get (Network.find_channel net u v) in
  let use a b = Complete_cdg.try_use_edge cdg ~from:a ~to_:b in
  Alcotest.(check bool) "01->12" true (use (chan 0 1) (chan 1 2));
  Alcotest.(check bool) "12->20" true (use (chan 1 2) (chan 2 0));
  Alcotest.(check bool) "closing blocked" false (use (chan 2 0) (chan 0 1));
  (* Re-asking gives the memoized answer without another DFS. *)
  let before = Complete_cdg.cycle_searches cdg in
  Alcotest.(check bool) "still blocked" false (use (chan 2 0) (chan 0 1));
  Alcotest.(check int) "no extra DFS" before (Complete_cdg.cycle_searches cdg)

(* Every blocked edge must genuinely close a cycle in the current used
   subgraph (blocking is permanent precisely because the used set only
   grows, so this must hold at any later point too). *)
let cdg_blocked_edges_justified () =
  let net = Helpers.random_net ~switches:10 ~links:20 () in
  let cdg = Complete_cdg.create net in
  let p = Prng.create 41 in
  let nc = Complete_cdg.num_channels cdg in
  for _ = 1 to 800 do
    let c = Prng.int p nc in
    let succ = succs cdg c in
    if Array.length succ > 0 then begin
      let q = succ.(Prng.int p (Array.length succ)) in
      ignore (Complete_cdg.try_use_edge cdg ~from:c ~to_:q)
    end
  done;
  (* Rebuild the used graph in a plain digraph and re-judge every
     blocked edge. *)
  let g = Digraph.create nc in
  for c = 0 to nc - 1 do
    Complete_cdg.iter_succ cdg c (fun q ->
        if Complete_cdg.edge_omega cdg ~from:c ~to_:q = 1 then
          Digraph.add_edge g c q)
  done;
  Alcotest.(check bool) "used graph acyclic" true (Digraph.is_acyclic g);
  let checked = ref 0 in
  for c = 0 to nc - 1 do
    Complete_cdg.iter_succ cdg c (fun q ->
        if Complete_cdg.edge_omega cdg ~from:c ~to_:q = -1 then begin
          incr checked;
          Alcotest.(check bool) "blocked edge closes a cycle" true
            (closes_cycle g c q)
        end)
  done;
  Alcotest.(check bool) "some edges were blocked" true (!checked > 0)

(* {1 Speculation API: checkpoint, rollback, journal, replay} *)

(* The offline answer to condition (d): breadth-first search from
   [start] over used edges. *)
let used_path cdg ~start ~target =
  let seen = Array.make (Complete_cdg.num_channels cdg) false in
  let queue = Queue.create () in
  seen.(start) <- true;
  Queue.add start queue;
  let found = ref (start = target) in
  while (not !found) && not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    Complete_cdg.iter_succ cdg c (fun q ->
        if Complete_cdg.edge_omega cdg ~from:c ~to_:q = 1 && not seen.(q)
        then begin
          if q = target then found := true;
          seen.(q) <- true;
          Queue.add q queue
        end)
  done;
  !found

(* Every edge's state, row by row. *)
let states cdg =
  Array.init (Complete_cdg.num_channels cdg) (fun c ->
      Array.map
        (fun q -> Complete_cdg.edge_omega cdg ~from:c ~to_:q)
        (succs cdg c))

let orders cdg = Array.init (Complete_cdg.num_channels cdg) (Complete_cdg.order cdg)

(* The maintained topological order is a permutation of the channels
   under which every used edge goes forward. *)
let order_valid cdg =
  let nc = Complete_cdg.num_channels cdg in
  let seen = Array.make nc false in
  let ok = ref true in
  for c = 0 to nc - 1 do
    let o = Complete_cdg.order cdg c in
    if o < 0 || o >= nc || seen.(o) then ok := false else seen.(o) <- true;
    Complete_cdg.iter_succ cdg c (fun q ->
        if Complete_cdg.edge_omega cdg ~from:c ~to_:q = 1
           && o >= Complete_cdg.order cdg q
        then ok := false)
  done;
  !ok

(* A random burst of edge admissions. Every verdict must agree with
   [used_path] taken just before the call — an edge is admissible
   exactly when no used path leads from its head back to its tail. That
   covers the queries the order decides, and (a)-(b), where the edge
   state does. After every call the order must still be valid. *)
let random_ops cdg p n =
  let nc = Complete_cdg.num_channels cdg in
  let ok = ref true in
  for _ = 1 to n do
    let c = Prng.int p nc in
    let succ = succs cdg c in
    if Array.length succ > 0 then begin
      let q = succ.(Prng.int p (Array.length succ)) in
      let admissible = not (used_path cdg ~start:q ~target:c) in
      let verdict =
        Complete_cdg.verdict_ok (Complete_cdg.try_use_edge_v cdg ~from:c ~to_:q)
      in
      if verdict <> admissible then ok := false
    end;
    if not (order_valid cdg) then ok := false
  done;
  !ok

let qcheck_speculation_round_trip =
  QCheck2.Test.make ~name:"checkpoint, rollback and journal replay" ~count:40
    QCheck2.Gen.(pair Helpers.arbitrary_net (int_range 0 1_000_000))
    (fun (net, seed) ->
       let p = Prng.create seed in
       let cdg = Complete_cdg.create net in
       let ok_before = random_ops cdg p 80 in
       let before = Complete_cdg.clone cdg in
       let target = Complete_cdg.clone cdg in
       let j = Complete_cdg.journal_create () in
       Complete_cdg.checkpoint cdg;
       Complete_cdg.set_journal cdg (Some j);
       let ok_spec = random_ops cdg p 160 in
       Complete_cdg.set_journal cdg None;
       let speculated = states cdg and speculated_order = orders cdg in
       (* A replica refresh carries the order with the edge states. *)
       let replica = Complete_cdg.clone before in
       Complete_cdg.copy_state_into ~src:cdg ~dst:replica;
       let copied = orders replica = speculated_order in
       Complete_cdg.rollback cdg;
       let restored =
         states cdg = states before
         && orders cdg = orders before
         && Complete_cdg.cycle_searches cdg = Complete_cdg.cycle_searches before
       in
       (* Replayed onto the pre-checkpoint state, the journal reproduces
          the speculation exactly, order included. *)
       let replayed =
         Complete_cdg.replay target j
         && states target = speculated
         && orders target = speculated_order
       in
       ok_before && ok_spec && copied && restored && replayed
       && Complete_cdg.used_subgraph_acyclic target)

(* The used and the blocked edges, each sorted. *)
let edge_sets cdg =
  let used = ref [] and blocked = ref [] in
  for c = Complete_cdg.num_channels cdg - 1 downto 0 do
    Complete_cdg.iter_succ cdg c (fun q ->
        match Complete_cdg.edge_omega cdg ~from:c ~to_:q with
        | 1 -> used := (c, q) :: !used
        | -1 -> blocked := (c, q) :: !blocked
        | _ -> ())
  done;
  (List.sort compare !used, List.sort compare !blocked)

(* Random fabrics (with failed links) and small tori. *)
let arbitrary_fabric =
  QCheck2.Gen.(
    oneof
      [ map2
          (fun net seed ->
             (Nue_netgraph.Fault.random_link_failures (Prng.create seed) net
                ~fraction:0.1)
               .Nue_netgraph.Fault.net)
          Helpers.arbitrary_net (int_range 0 1_000_000);
        map3
          (fun x y z ->
             (Topology.torus3d ~dims:(x, y, z) ~terminals_per_switch:1 ())
               .Topology.net)
          (int_range 2 4) (int_range 2 4) (int_range 2 3) ])

(* LASH's all-or-nothing admission ({!Nue_routing.Lash.admit_path})
   of random U-turn-free channel walks, last step first as LASH admits
   a path, into one complete CDG. Each
   walk's verdict must be the offline one: the used edges plus the
   walk, as a plain digraph, are acyclic. After every attempt the used
   edges are exactly the model's (an accepted walk adds its edges, a
   rejected one leaves the graph as it was, so a released edge can be
   admitted again), no slot is blocked, and the order is a permutation
   under which every used edge goes forward. Walks revisit used edges,
   so rejected walks that cross an earlier walk's edges occur too. *)
let walks_accepted = ref 0
let walks_rejected = ref 0

let qcheck_all_or_nothing =
  QCheck2.Test.make ~name:"all-or-nothing walks agree with an offline check"
    ~count:40
    QCheck2.Gen.(pair arbitrary_fabric (int_range 0 1_000_000))
    (fun (net, seed) ->
       let p = Prng.create seed in
       let cdg = Complete_cdg.create net in
       let nc = Complete_cdg.num_channels cdg in
       let model = Digraph.create nc in
       let ok = ref true in
       for _ = 1 to 60 do
         let w = random_walk cdg p (Prng.int p nc) (1 + Prng.int p 12) in
         (* The oracle: add the walk to the model, keep it if acyclic. *)
         List.iter (fun (a, b) -> Digraph.add_edge model a b) w;
         let acyclic = Digraph.is_acyclic model in
         if not acyclic then
           List.iter (fun (a, b) -> Digraph.remove_edge model a b) w;
         let admitted = Nue_routing.Lash.admit_path cdg w in
         if admitted then incr walks_accepted else incr walks_rejected;
         let used, blocked = edge_sets cdg in
         if admitted <> acyclic
            || List.length used <> Digraph.num_edges model
            || not
                 (List.for_all (fun (c, q) -> Digraph.mem_edge model c q) used)
            || blocked <> [] || not (order_valid cdg)
         then ok := false
       done;
       !ok)

let all_or_nothing_both_verdicts =
  let name, speed, run = QCheck_alcotest.to_alcotest qcheck_all_or_nothing in
  ( name,
    speed,
    fun () ->
      walks_accepted := 0;
      walks_rejected := 0;
      run ();
      Alcotest.(check bool)
        (Printf.sprintf "both verdicts occur (%d accepted, %d rejected)"
           !walks_accepted !walks_rejected)
        true
        (!walks_accepted > 0 && !walks_rejected > 0) )

(* The paper's Algorithm 3 ({!Algorithm3_reference}: subgraph ids, and
   a plain search for (d)) and the order-decided one agree on every
   query of a random sequence: the same admit/block verdict, the same
   memo condition for (a) and (b), and in the end the same used and
   blocked edges. The sequence is cut by checkpoints, rollbacks and
   speculations replayed after other commits, as Nue's rounds run them:
   the reference snapshots where the CDG checkpoints. *)
let qcheck_algorithm3_reference =
  QCheck2.Test.make ~name:"agrees with the omega Algorithm 3" ~count:60
    QCheck2.Gen.(pair arbitrary_fabric (int_range 0 1_000_000))
    (fun (net, seed) ->
       let p = Prng.create seed in
       let cdg = Complete_cdg.create net in
       let reference = ref (Algorithm3_reference.create net) in
       let nc = Complete_cdg.num_channels cdg in
       let ok = ref true in
       (* One query on both; the decision as the reference recorded it. *)
       let query () =
         let c = Prng.int p nc in
         let succ = succs cdg c in
         if Array.length succ = 0 then None
         else begin
           let q = succ.(Prng.int p (Array.length succ)) in
           let v = Complete_cdg.try_use_edge_v cdg ~from:c ~to_:q in
           let admitted, cond =
             Algorithm3_reference.try_use_edge !reference ~from:c ~to_:q
           in
           let cond = if cond = 'c' then 'd' else cond in
           if Complete_cdg.verdict_ok v <> admitted
              || Complete_cdg.verdict_condition v <> cond
           then ok := false;
           Some (c, q, admitted)
         end
       in
       let snapshot = ref None in
       for _ = 1 to 300 do
         match Prng.int p 20, !snapshot with
         | 0, None ->
           Complete_cdg.checkpoint cdg;
           snapshot := Some (Algorithm3_reference.copy !reference)
         | 0, Some saved ->
           Complete_cdg.rollback cdg;
           reference := saved;
           snapshot := None
         | 1, None ->
           (* A speculation, rolled back; other commits; its replay. *)
           let j = Complete_cdg.journal_create () in
           let saved = Algorithm3_reference.copy !reference in
           Complete_cdg.checkpoint cdg;
           Complete_cdg.set_journal cdg (Some j);
           let ops =
             List.filter_map (fun _ -> query ()) (List.init 20 Fun.id)
           in
           Complete_cdg.set_journal cdg None;
           Complete_cdg.rollback cdg;
           reference := saved;
           for _ = 1 to Prng.int p 10 do
             ignore (query ())
           done;
           if Complete_cdg.replay cdg j
              <> Algorithm3_reference.replay !reference ops
           then ok := false
         | _ -> ignore (query ())
       done;
       !ok
       && edge_sets cdg = Algorithm3_reference.edge_sets !reference
       && Complete_cdg.used_subgraph_acyclic cdg)

(* The window walk of [reorder] and its sort-and-merge reference
   ({!Reorder_reference}) give the same order after every query of a
   random sequence, and the same verdicts, across checkpoints,
   rollbacks and speculations replayed after other commits. Random
   walks admitted from their far end build long used chains that later
   admissions move whole, so both sides of the size rule run; each
   reorder is classified by it, and both classes must occur over the
   run. *)
let reorders_walked = ref 0
let reorders_sorted = ref 0

let qcheck_reorder_reference =
  QCheck2.Test.make ~name:"reorder agrees with sort-and-merge" ~count:40
    QCheck2.Gen.(
      pair
        (oneof
           [ arbitrary_fabric;
             map3
               (fun x y z ->
                  (Topology.torus3d ~dims:(x, y, z) ~terminals_per_switch:1 ())
                    .Topology.net)
               (int_range 3 5) (int_range 3 5) (int_range 2 3) ])
        (int_range 0 1_000_000))
    (fun (net, seed) ->
       let p = Prng.create seed in
       let cdg = Complete_cdg.create net in
       let nc = Complete_cdg.num_channels cdg in
       let reference = ref (Reorder_reference.create nc) in
       let ok = ref true in
       let query c q =
         let v = Complete_cdg.try_use_edge_v cdg ~from:c ~to_:q in
         let admitted, moved =
           Reorder_reference.try_use_edge !reference ~from:c ~to_:q
         in
         (match moved with
          | Some (moved, window) ->
            if Complete_cdg.reorders_by_window ~moved ~window then
              incr reorders_walked
            else incr reorders_sorted
          | None -> ());
         if Complete_cdg.verdict_ok v <> admitted
            || orders cdg <> Reorder_reference.order !reference
         then ok := false;
         (c, q, admitted)
       in
       (* One random edge, or a random walk of 8 to 47 edges admitted
          from its far end back to its start. *)
       let queries () =
         let c = Prng.int p nc in
         let succ = succs cdg c in
         if Array.length succ = 0 then []
         else if Prng.int p 4 > 0 then
           [ query c succ.(Prng.int p (Array.length succ)) ]
         else
           List.map
             (fun (c, q) -> query c q)
             (random_walk cdg p c (8 + Prng.int p 40))
       in
       let snapshot = ref None in
       for _ = 1 to 200 do
         match Prng.int p 20, !snapshot with
         | 0, None ->
           Complete_cdg.checkpoint cdg;
           snapshot := Some (Reorder_reference.copy !reference)
         | 0, Some saved ->
           Complete_cdg.rollback cdg;
           reference := saved;
           snapshot := None
         | 1, None ->
           (* A speculation, rolled back; other commits; its replay. *)
           let j = Complete_cdg.journal_create () in
           let saved = Reorder_reference.copy !reference in
           Complete_cdg.checkpoint cdg;
           Complete_cdg.set_journal cdg (Some j);
           let ops = List.concat (List.init 5 (fun _ -> queries ())) in
           Complete_cdg.set_journal cdg None;
           Complete_cdg.rollback cdg;
           reference := saved;
           for _ = 1 to Prng.int p 5 do
             ignore (queries ())
           done;
           if Complete_cdg.replay cdg j
              <> Reorder_reference.replay !reference ops
              || orders cdg <> Reorder_reference.order !reference
           then ok := false
         | _ -> ignore (queries ())
       done;
       !ok && order_valid cdg)

let reorder_reference_both_paths =
  let name, speed, run =
    QCheck_alcotest.to_alcotest qcheck_reorder_reference
  in
  ( name,
    speed,
    fun () ->
      reorders_walked := 0;
      reorders_sorted := 0;
      run ();
      Alcotest.(check bool)
        (Printf.sprintf "both paths ran (%d walked, %d sorted)"
           !reorders_walked !reorders_sorted)
        true
        (!reorders_walked > 0 && !reorders_sorted > 0) )

let cdg_rollback_restores_live_graph () =
  (* The same round trip on a fixed fabric, with failures named. *)
  let net = Helpers.random_net ~switches:12 ~links:30 () in
  let cdg = Complete_cdg.create net in
  let p = Prng.create 5 in
  Alcotest.(check bool) "verdicts before" true (random_ops cdg p 300);
  let before = states cdg and searches = Complete_cdg.cycle_searches cdg in
  Complete_cdg.checkpoint cdg;
  Alcotest.(check bool) "verdicts under checkpoint" true (random_ops cdg p 600);
  Alcotest.(check bool) "speculation searched" true
    (Complete_cdg.cycle_searches cdg > searches);
  Complete_cdg.rollback cdg;
  Alcotest.(check bool) "edge states restored" true (states cdg = before);
  Alcotest.(check int) "search count restored" searches
    (Complete_cdg.cycle_searches cdg);
  let misuse f =
    match f cdg with exception Invalid_argument _ -> true | () -> false
  in
  Alcotest.(check bool) "rollback without checkpoint raises" true
    (misuse Complete_cdg.rollback);
  Complete_cdg.checkpoint cdg;
  Alcotest.(check bool) "nested checkpoint raises" true
    (misuse Complete_cdg.checkpoint);
  Complete_cdg.rollback cdg

let cdg_replay_detects_misspeculation () =
  let net = Helpers.ring ~terminals:0 4 in
  let cdg = Complete_cdg.create net in
  let chan u v = Option.get (Network.find_channel net u v) in
  let use a b = Complete_cdg.try_use_edge cdg ~from:a ~to_:b in
  (* The speculation admits (3->0) -> (0->1) and is rolled back. *)
  let j = Complete_cdg.journal_create () in
  Complete_cdg.checkpoint cdg;
  Complete_cdg.set_journal cdg (Some j);
  Alcotest.(check bool) "speculated admission" true (use (chan 3 0) (chan 0 1));
  Complete_cdg.set_journal cdg None;
  Complete_cdg.rollback cdg;
  Alcotest.(check int) "rolled back" 0
    (Complete_cdg.edge_omega cdg ~from:(chan 3 0) ~to_:(chan 0 1));
  (* An earlier commit uses the rest of the ring, which blocks the
     speculated edge. *)
  Alcotest.(check bool) "01->12" true (use (chan 0 1) (chan 1 2));
  Alcotest.(check bool) "12->23" true (use (chan 1 2) (chan 2 3));
  Alcotest.(check bool) "23->30" true (use (chan 2 3) (chan 3 0));
  Alcotest.(check bool) "closing edge blocked" false (use (chan 3 0) (chan 0 1));
  Alcotest.(check bool) "replay refuses" false (Complete_cdg.replay cdg j);
  Alcotest.(check bool) "used subgraph still acyclic" true
    (Complete_cdg.used_subgraph_acyclic cdg)

let cdg_copy_state_checks_structure () =
  (* Both CDGs have 22 channels, so a size check cannot tell them
     apart. *)
  let ring = Complete_cdg.create (Helpers.ring5 ()) in
  let line = Complete_cdg.create (Helpers.line 6) in
  Alcotest.(check int) "same channel count"
    (Complete_cdg.num_channels ring) (Complete_cdg.num_channels line);
  let refused ~src ~dst =
    match Complete_cdg.copy_state_into ~src ~dst with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  Alcotest.(check bool) "ring5 -> line6 refused" true (refused ~src:ring ~dst:line);
  Alcotest.(check bool) "line6 -> ring5 refused" true (refused ~src:line ~dst:ring);
  (* A clone shares the structure and takes the state. *)
  let replica = Complete_cdg.clone ring in
  let p = Prng.create 9 in
  ignore (random_ops ring p 200);
  Complete_cdg.copy_state_into ~src:ring ~dst:replica;
  Alcotest.(check bool) "replica refreshed" true
    (states replica = states ring && orders replica = orders ring);
  Alcotest.(check int) "search count copied"
    (Complete_cdg.cycle_searches ring) (Complete_cdg.cycle_searches replica);
  Complete_cdg.checkpoint replica;
  Alcotest.(check bool) "open checkpoint on dst refused" true
    (refused ~src:ring ~dst:replica);
  Complete_cdg.rollback replica

let cdg_order_queries_allocation_free () =
  (* Queries the order decides: unused edges, each admitted or blocked
     under a checkpoint and rolled back, as a speculation does. *)
  let net = Helpers.random_net ~switches:12 ~links:30 () in
  let cdg = Complete_cdg.create net in
  ignore (random_ops cdg (Prng.create 17) 800);
  let edges = ref [] in
  for c = Complete_cdg.num_channels cdg - 1 downto 0 do
    Array.iter
      (fun q ->
         if Complete_cdg.edge_omega cdg ~from:c ~to_:q = 0 then
           edges := (c, q) :: !edges)
      (succs cdg c)
  done;
  let edges = Array.of_list !edges in
  let n = Array.length edges in
  let query (from, to_) =
    Complete_cdg.checkpoint cdg;
    let admitted = Complete_cdg.try_use_edge cdg ~from ~to_ in
    let searches = Complete_cdg.cycle_searches cdg in
    Complete_cdg.rollback cdg;
    (admitted, searches)
  in
  (* The first pass also grows the undo trail to what a query needs. *)
  let admitted =
    Array.fold_left
      (fun acc e -> if fst (query e) then acc + 1 else acc)
      0 edges
  in
  Alcotest.(check bool) "both answers occur" true (admitted > 0 && admitted < n);
  let searches = Complete_cdg.cycle_searches cdg in
  let decided = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    let from, to_ = edges.(i mod n) in
    Complete_cdg.checkpoint cdg;
    ignore (Sys.opaque_identity (Complete_cdg.try_use_edge cdg ~from ~to_));
    if Complete_cdg.cycle_searches cdg = searches + 1 then incr decided;
    Complete_cdg.rollback cdg
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "every query is decided from the order" 10_000 !decided;
  Alcotest.(check int) "rollback restores the count" searches
    (Complete_cdg.cycle_searches cdg);
  Alcotest.(check bool) "the order's answers agree" true
    (Array.for_all (fun e -> snd (query e) = searches + 1) edges);
  (* The two Gc.minor_words calls box a float each. *)
  Alcotest.(check bool) "order queries allocation-free" true (w1 -. w0 < 256.0)

let suite =
  [ ("digraph",
     [ test_case "edges and multiplicity" `Quick digraph_edges;
       test_case "acyclic dag" `Quick digraph_acyclic_dag;
       test_case "finds cycle" `Quick digraph_finds_cycle;
       test_case "self loop" `Quick digraph_self_loop_cycle ]);
    ("complete_cdg",
     [ test_case "Fig. 3 structure" `Quick cdg_fig3_structure;
       test_case "no u-turns" `Quick cdg_no_u_turns;
       QCheck_alcotest.to_alcotest qcheck_definition6;
       test_case "Definition 6 with parallel links" `Quick
         cdg_definition6_parallel_links;
       test_case "non-edges raise" `Quick cdg_non_edges_raise;
       test_case "create allocates state only" `Quick cdg_create_footprint;
       test_case "ring closure blocked" `Quick cdg_blocks_ring_closure;
       test_case "rolled-back admission does not commit" `Quick
         cdg_rolled_back_admission;
       test_case "random usage keeps acyclicity" `Quick cdg_random_usage_invariant;
       test_case "blocked is memoized" `Quick cdg_blocked_stays_blocked;
       test_case "blocked edges justified" `Quick cdg_blocked_edges_justified;
       all_or_nothing_both_verdicts ]);
    ("cdg:speculation",
     [ QCheck_alcotest.to_alcotest qcheck_speculation_round_trip;
       QCheck_alcotest.to_alcotest qcheck_algorithm3_reference;
       reorder_reference_both_paths;
       test_case "rollback restores the live graph" `Quick
         cdg_rollback_restores_live_graph;
       test_case "replay detects misspeculation" `Quick
         cdg_replay_detects_misspeculation;
       test_case "copy_state_into checks structure" `Quick
         cdg_copy_state_checks_structure;
       test_case "order queries allocation-free" `Quick
         cdg_order_queries_allocation_free ]) ]
