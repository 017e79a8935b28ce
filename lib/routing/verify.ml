module Network = Nue_netgraph.Network
module Digraph = Nue_cdg.Digraph
module Bitset = Nue_structures.Bitset

type report = {
  connected : bool;
  cycle_free : bool;
  deadlock_free : bool;
  unreachable_pairs : int;
  dependency_cycle : (int * int) list option;
}

let default_sources (t : Table.t) = Network.terminals t.net

(* {1 One walk per destination tree}

   [settle] follows the table from a source until it meets the
   destination, a node settled before or one of its own walk, or a dead
   end: no hop, or a hop whose channel does not leave the node. Every
   node of the walk then takes the verdict — it reaches, dead-ends or
   loops — as stamp [base + verdict]; [base] itself marks the walk in
   progress, and stamps below it are earlier destinations', so one array
   serves every destination. [walked] lists the nodes settled toward
   the current destination; the destination itself reaches. *)

type walk = {
  stamp : int array;
  walked : int array;
  mutable len : int;
  mutable base : int;
}

let reaches = 1 and dead_end = 2 and loop = 3

let walk nn =
  { stamp = Array.make nn 0; walked = Array.make nn 0; len = 0; base = 0 }

let start w dest =
  w.base <- w.base + 4;
  w.len <- 0;
  w.stamp.(dest) <- w.base + reaches

let leaves net node c = c >= 0 && Network.src net c = node

let settle w net nexts src =
  let first = w.len and node = ref src and verdict = ref 0 in
  while !verdict = 0 do
    let s = w.stamp.(!node) in
    if s >= w.base then verdict := if s = w.base then loop else s - w.base
    else begin
      w.stamp.(!node) <- w.base;
      w.walked.(w.len) <- !node;
      w.len <- w.len + 1;
      let c = nexts.(!node) in
      if leaves net !node c then node := Network.dst net c
      else verdict := dead_end
    end
  done;
  for i = first to w.len - 1 do
    w.stamp.(w.walked.(i)) <- w.base + !verdict
  done;
  !verdict

(* [f c vl] for each hop of a pair that reaches [dest]. *)
let iter_hops (t : Table.t) nexts ~src ~dest f =
  let node = ref src and hop = ref 0 in
  while !node <> dest do
    let c = nexts.(!node) in
    f c (Table.vl_of t ~src ~dest ~hop:!hop ~channel:c);
    node := Network.dst t.net c;
    incr hop
  done

(* Unreachable pairs and whether no pair loops. The recheck shards over
   the pool by destination, each domain with its own walk; tallies land
   in index-slotted arrays and are folded sequentially: sums and
   conjunctions commute, so the result is identical for any job
   count. *)
let tally ~label ~sources (t : Table.t) =
  let nd = Array.length t.dests in
  let unreach_of = Array.make nd 0 and cycle_free_of = Array.make nd true in
  Nue_parallel.Pool.run_with ~label ~n:nd
    ~init:(fun () -> walk (Network.num_nodes t.net))
    (fun w pos ->
       let dest = t.dests.(pos) and nexts = t.next_channel.(pos) in
       start w dest;
       Array.iter
         (fun src ->
            let v = settle w t.net nexts src in
            if v <> reaches then unreach_of.(pos) <- unreach_of.(pos) + 1;
            if v = loop then cycle_free_of.(pos) <- false)
         sources);
  (Array.fold_left ( + ) 0 unreach_of, Array.for_all Fun.id cycle_free_of)

let induced_vcdg ?sources (t : Table.t) =
  let sources = match sources with Some s -> s | None -> default_sources t in
  let net = t.net in
  let nc = Network.num_channels net in
  let g = Digraph.create (nc * max 1 t.num_vls) in
  let vid c vl = (vl * nc) + c in
  let add a b = if not (Digraph.mem_edge g a b) then Digraph.add_edge g a b in
  let w = walk (Network.num_nodes net) in
  let prev = ref (-1) in
  let hop c vl =
    let u = vid c vl in
    if !prev >= 0 then add !prev u;
    prev := u
  in
  (* Dependencies go straight into the digraph, one destination after
     another; its successor lists are kept sorted, so the graph — and
     any cycle witness — does not depend on the insertion order. *)
  Array.iteri
    (fun pos dest ->
       let nexts = t.next_channel.(pos) in
       start w dest;
       match t.vl with
       | Table.All_zero | Table.Per_dest _ ->
         (* The whole destination tree lives on one VL: every hop walked
            from a source, whether or not it reaches, waits for the next
            node's hop. O(|N|) per destination. *)
         let vl = match t.vl with Table.Per_dest a -> a.(pos) | _ -> 0 in
         Array.iter (fun src -> ignore (settle w net nexts src)) sources;
         for i = 0 to w.len - 1 do
           let x = w.walked.(i) in
           let c1 = nexts.(x) in
           if leaves net x c1 then begin
             let m = Network.dst net c1 in
             let c2 = nexts.(m) in
             if m <> dest && leaves net m c2 then add (vid c1 vl) (vid c2 vl)
           end
         done
       | Table.Per_pair _ | Table.Per_hop _ ->
         (* Lanes may differ per pair: walk each pair that reaches. *)
         Array.iter
           (fun src ->
              if settle w net nexts src = reaches then begin
                prev := -1;
                iter_hops t nexts ~src ~dest hop
              end)
           sources)
    t.dests;
  g

let check ?sources (t : Table.t) =
  let sources = match sources with Some s -> s | None -> default_sources t in
  let nc = Network.num_channels t.net in
  let unreachable, cycle_free = tally ~label:"verify.check" ~sources t in
  let cycle = Digraph.find_cycle (induced_vcdg ~sources t) in
  {
    connected = unreachable = 0;
    cycle_free;
    deadlock_free = cycle = None;
    unreachable_pairs = unreachable;
    dependency_cycle =
      Option.map (List.map (fun v -> (v mod nc, v / nc))) cycle;
  }

let deadlock_free ?sources t =
  Digraph.is_acyclic (induced_vcdg ?sources t)

let connected ?sources (t : Table.t) =
  let sources = match sources with Some s -> s | None -> default_sources t in
  fst (tally ~label:"verify.connected" ~sources t) = 0

(* {1 Witness rendering}

   [dependency_cycle] witnesses come out as raw (channel, vl) pairs —
   useless in a failure message without the channel endpoints. Render
   them against the network so a broken engine's test output reads as a
   hold-and-wait story. *)

let unit_label (t : Table.t) (c, vl) =
  let s = Network.src t.net c and d = Network.dst t.net c in
  let name n =
    Printf.sprintf "%s%d" (if Network.is_switch t.net n then "s" else "t") n
  in
  Printf.sprintf "c%d (%s->%s, vl %d)" c (name s) (name d) vl

let render_cycle (t : Table.t) cycle =
  match cycle with
  | [] -> "empty dependency cycle (vacuously acyclic)\n"
  | first :: _ ->
    let buf = Buffer.create 256 in
    let n = List.length cycle in
    Buffer.add_string buf
      (Printf.sprintf
         "dependency cycle of %d virtual channel(s) — each holds its \
          channel and waits for the next:\n" n);
    let rec go = function
      | [] -> ()
      | [ last ] ->
        Buffer.add_string buf
          (Printf.sprintf "  %s\n    -> waits for %s  (closing the cycle)\n"
             (unit_label t last) (unit_label t first))
      | u :: (v :: _ as rest) ->
        Buffer.add_string buf
          (Printf.sprintf "  %s\n    -> waits for %s\n" (unit_label t u)
             (unit_label t v));
        go rest
    in
    go cycle;
    Buffer.contents buf

let cycle_to_dot (t : Table.t) cycle =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "digraph dependency_cycle {\n";
  add "  rankdir=LR;\n";
  add "  node [shape=box, style=filled, fillcolor=mistyrose];\n";
  let nc = Network.num_channels t.net in
  let vid (c, vl) = (vl * nc) + c in
  List.iter
    (fun ((c, vl) as u) ->
       add "  u%d [label=\"%s\"];\n" (vid u) (unit_label t (c, vl)))
    cycle;
  (match cycle with
   | [] -> ()
   | first :: _ ->
     let rec edges = function
       | [] -> ()
       | [ last ] ->
         add "  u%d -> u%d [color=red, penwidth=2.0];\n" (vid last)
           (vid first)
       | u :: (v :: _ as rest) ->
         add "  u%d -> u%d [color=red, penwidth=2.0];\n" (vid u) (vid v);
         edges rest
     in
     edges cycle);
  add "}\n";
  Buffer.contents buf

let vls_used ?sources (t : Table.t) =
  let sources = match sources with Some s -> s | None -> default_sources t in
  let seen = Bitset.create (max 1 t.num_vls) in
  (match t.vl with
   | Table.All_zero -> Bitset.add seen 0
   | Table.Per_dest a -> Array.iter (fun v -> Bitset.add seen v) a
   | Table.Per_pair a ->
     Array.iter
       (fun per_src -> Array.iter (fun v -> Bitset.add seen v) per_src)
       a
   | Table.Per_hop _ ->
     let w = walk (Network.num_nodes t.net) in
     let add_vl _ v = Bitset.add seen v in
     Array.iteri
       (fun pos dest ->
          let nexts = t.next_channel.(pos) in
          start w dest;
          Array.iter
            (fun src ->
               if settle w t.net nexts src = reaches then
                 iter_hops t nexts ~src ~dest add_vl)
            sources)
       t.dests);
  Bitset.cardinal seen
