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

type stats = {
  loads : int array;
  pairs : int;
  unreachable : int;
  hops : int;
  max_hops : int;
}

(* {1 One walk per destination tree}

   [settle] follows the table from a source until it meets the
   destination, a node settled before or one of its own walk, or a dead
   end: no hop, or a hop whose channel does not leave the node. Every
   node of the walk then takes the verdict — it reaches, dead-ends or
   loops — as stamp [base + verdict]; [base] itself marks the walk in
   progress, and stamps below it are earlier destinations', so one array
   serves every destination. [walked] lists the nodes settled toward
   the current destination, one segment per [settle] in walk order, and
   [seg] where each segment starts; the destination itself reaches.

   A node that reaches also gets its hop count, and [cross] starts at
   the number of times it is listed as a source. A segment only ever
   ends on a node settled before it ([ends]), so the segments last to
   first, each in walk order, meet every node after all the nodes whose
   hop leads to it: one pass adding each count onto the next node's
   leaves at every node the number of listed paths that cross it.
   Neither means anything where the node does not reach. *)

type walk = {
  stamp : int array;
  walked : int array;
  seg : int array;
  ends : int array;
  hops : int array;
  cross : int array;
  srcs : int array; (* the network's channel endpoints, not a copy *)
  dsts : int array;
  mutable dest : int;
  mutable len : int;
  mutable segs : int;
  mutable base : int;
}

let reaches = 1 and dead_end = 2 and loop = 3

let walk net =
  let a () = Array.make (Network.num_nodes net) 0 in
  { stamp = a (); walked = a (); seg = a (); ends = a (); hops = a ();
    cross = a (); srcs = Network.srcs net; dsts = Network.dsts net;
    dest = 0; len = 0; segs = 0; base = 0 }

let start w dest =
  w.base <- w.base + 4;
  w.dest <- dest;
  w.len <- 0;
  w.segs <- 0;
  w.stamp.(dest) <- w.base + reaches;
  w.hops.(dest) <- 0;
  w.cross.(dest) <- 0

let leaves w node c = c >= 0 && w.srcs.(c) = node

let settle w nexts src =
  let first = w.len and node = ref src and verdict = ref 0 in
  while !verdict = 0 do
    let s = w.stamp.(!node) in
    if s >= w.base then verdict := if s = w.base then loop else s - w.base
    else begin
      w.stamp.(!node) <- w.base;
      w.walked.(w.len) <- !node;
      w.len <- w.len + 1;
      let c = nexts.(!node) in
      if leaves w !node c then node := w.dsts.(c)
      else verdict := dead_end
    end
  done;
  if w.len > first then begin
    w.seg.(w.segs) <- first;
    w.ends.(w.segs) <- !node;
    w.segs <- w.segs + 1
  end;
  let h = ref w.hops.(!node) in
  for i = w.len - 1 downto first do
    let x = w.walked.(i) in
    w.stamp.(x) <- w.base + !verdict;
    incr h;
    w.hops.(x) <- !h;
    w.cross.(x) <- 0
  done;
  if !verdict = reaches && src <> w.dest then
    w.cross.(src) <- w.cross.(src) + 1;
  !verdict

(* Passes each reaching node's crossings on to the next node, then
   [f c paths] for its hop [c]: segments last to first, each in walk
   order, so every count is complete when its node is met. *)
let iter_crossed w nexts f =
  let stop = ref w.len in
  for s = w.segs - 1 downto 0 do
    let first = w.seg.(s) in
    if w.stamp.(w.walked.(first)) = w.base + reaches then
      for i = first to !stop - 1 do
        let x = w.walked.(i) in
        let m = if i + 1 < !stop then w.walked.(i + 1) else w.ends.(s) in
        w.cross.(m) <- w.cross.(m) + w.cross.(x);
        f nexts.(x) w.cross.(x)
      done;
    stop := first
  done

let iter_loads w net ~nexts ~dest ~sources f =
  if w.srcs != Network.srcs net then
    invalid_arg "Verify.iter_loads: walk of another network";
  start w dest;
  for i = 0 to Array.length sources - 1 do
    ignore (settle w nexts sources.(i))
  done;
  iter_crossed w nexts f

type walked = { g : Digraph.t; s : stats; cycle_free : bool }

(* Everything read from a table, in one walk per destination, in
   destination order: the pairs that do not reach and whether one loops;
   with [deps], the induced VCDG; into [lanes], the lanes of the reaching
   pairs' hops; with [count], the paths crossing each channel and the
   reaching pairs' hop counts. Dependencies go straight into the digraph;
   its successor lists are kept sorted, so the graph — and any cycle
   witness — does not depend on the insertion order. *)
let walk_table ?sources ?lanes ?(deps = false) ?(count = false) (t : Table.t)
  =
  let sources =
    match sources with Some s -> s | None -> Network.terminals t.net
  in
  let net = t.net in
  let nc = Network.num_channels net in
  let w = walk net and loads = Array.make (if count then nc else 0) 0 in
  let g = Digraph.create (if deps then nc * max 1 t.num_vls else 0) in
  let unreachable = ref 0 and cycle_free = ref true in
  let pairs = ref 0 and hops = ref 0 and max_hops = ref 0 in
  let vid c vl = (vl * nc) + c in
  let add a b = if not (Digraph.mem_edge g a b) then Digraph.add_edge g a b in
  let per_pair =
    (deps || Option.is_some lanes)
    && match t.vl with Table.Per_pair _ | Table.Per_hop _ -> true | _ -> false
  in
  let prev = ref (-1) in
  let hop c vl =
    (match lanes with Some seen -> Bitset.add seen vl | None -> ());
    let u = vid c vl in
    if deps && !prev >= 0 then add !prev u;
    prev := u
  in
  Array.iteri
    (fun pos dest ->
       let nexts = t.next_channel.(pos) in
       start w dest;
       Array.iter
         (fun src ->
            let v = settle w nexts src in
            if v <> reaches then begin
              incr unreachable;
              if v = loop then cycle_free := false
            end
            else begin
              if w.hops.(src) > !max_hops then max_hops := w.hops.(src);
              if per_pair then begin
                (* Lanes may differ per pair: walk each pair that
                   reaches. *)
                prev := -1;
                let node = ref src and i = ref 0 in
                while !node <> dest do
                  let c = nexts.(!node) in
                  hop c (Table.vl_of t ~src ~dest ~hop:!i ~channel:c);
                  node := w.dsts.(c);
                  incr i
                done
              end
            end)
         sources;
       (match t.vl with
        | (Table.All_zero | Table.Per_dest _) when deps ->
          (* The whole destination tree lives on one VL: every hop walked
             from a source, whether or not it reaches, waits for the next
             node's hop. O(|N|) per destination. *)
          let vl = match t.vl with Table.Per_dest a -> a.(pos) | _ -> 0 in
          for i = 0 to w.len - 1 do
            let x = w.walked.(i) in
            let c1 = nexts.(x) in
            if leaves w x c1 then begin
              let m = w.dsts.(c1) in
              let c2 = nexts.(m) in
              if m <> dest && leaves w m c2 then add (vid c1 vl) (vid c2 vl)
            end
          done
        | _ -> ());
       if count then begin
         iter_crossed w nexts (fun c k ->
             loads.(c) <- loads.(c) + k;
             hops := !hops + k);
         (* Every reaching path ends at the destination. *)
         pairs := !pairs + w.cross.(dest)
       end)
    t.dests;
  { g; cycle_free = !cycle_free;
    s = { loads; pairs = !pairs; unreachable = !unreachable; hops = !hops;
          max_hops = !max_hops } }

let checked ?sources ?count (t : Table.t) =
  let nc = Network.num_channels t.net in
  let { g; s; cycle_free } = walk_table ?sources ~deps:true ?count t in
  let cycle = Digraph.find_cycle g in
  let witness = List.map (fun v -> (v mod nc, v / nc)) in
  ( { connected = s.unreachable = 0; cycle_free; deadlock_free = cycle = None;
      unreachable_pairs = s.unreachable;
      dependency_cycle = Option.map witness cycle },
    s )

let check ?sources t = fst (checked ?sources t)

let measure t = checked ~count:true t

let stats ?sources t = (walk_table ?sources ~count:true t).s

let induced_vcdg ?sources t = (walk_table ?sources ~deps:true t).g

let deadlock_free ?sources t = Digraph.is_acyclic (induced_vcdg ?sources t)

let connected ?sources t = (walk_table ?sources t).s.unreachable = 0

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
  let seen = Bitset.create (max 1 t.num_vls) in
  (match t.vl with
   | Table.All_zero -> Bitset.add seen 0
   | Table.Per_dest a -> Array.iter (fun v -> Bitset.add seen v) a
   | Table.Per_pair a ->
     Array.iter
       (fun per_src -> Array.iter (fun v -> Bitset.add seen v) per_src)
       a
   | Table.Per_hop _ -> ignore (walk_table ?sources ~lanes:seen t));
  Bitset.cardinal seen
