module Fib_heap = Nue_structures.Fib_heap

let bfs_distances net start =
  let n = Network.num_nodes net in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  dist.(start) <- 0;
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    let adj = Network.out_channels net u in
    for i = 0 to Array.length adj - 1 do
      let v = Network.dst net adj.(i) in
      if dist.(v) = max_int then begin
        dist.(v) <- dist.(u) + 1;
        Queue.add v queue
      end
    done
  done;
  dist

let is_connected net =
  let n = Network.num_nodes net in
  n = 0
  ||
  let dist = bfs_distances net 0 in
  Array.for_all (fun d -> d < max_int) dist

let components net =
  let n = Network.num_nodes net in
  let label = Array.make n (-1) in
  for start = 0 to n - 1 do
    if label.(start) < 0 then begin
      let queue = Queue.create () in
      label.(start) <- start;
      Queue.add start queue;
      while not (Queue.is_empty queue) do
        let u = Queue.take queue in
        let adj = Network.out_channels net u in
        for i = 0 to Array.length adj - 1 do
          let v = Network.dst net adj.(i) in
          if label.(v) < 0 then begin
            label.(v) <- start;
            Queue.add v queue
          end
        done
      done
    end
  done;
  label

let dijkstra_to_dest net ~weights ~dest =
  let n = Network.num_nodes net in
  let next = Array.make n (-1) in
  let dist = Array.make n infinity in
  let heap = Fib_heap.create () and key = [| 0.0 |] in
  dist.(dest) <- 0.0;
  Fib_heap.insert heap ~key:0.0 dest;
  let relax u =
    (* Expand predecessors of u: a node v with channel v -> u improves if
       going through u is strictly cheaper (or equal with a smaller
       channel id, for determinism). An improved node is re-inserted
       rather than decreased; its older entries pop stale and are
       skipped below. Both outputs are order-independent: [dist] is the
       shortest distance and [next] the smallest channel id among the
       equal-cost next hops. *)
    let inc = Network.in_channels net u in
    for i = 0 to Array.length inc - 1 do
      let c = inc.(i) in
      let v = Network.src net c in
      let cand = dist.(u) +. weights.(c) in
      let better =
        cand < dist.(v)
        || (cand = dist.(v) && next.(v) >= 0 && c < next.(v))
      in
      if better then begin
        dist.(v) <- cand;
        next.(v) <- c;
        Fib_heap.insert heap ~key:cand v
      end
    done
  in
  let u = ref (Fib_heap.extract_min heap key) in
  while !u >= 0 do
    if key.(0) <= dist.(!u) then relax !u;
    u := Fib_heap.extract_min heap key
  done;
  (next, dist)

let shortest_path_dag_counts net ~dest =
  let n = Network.num_nodes net in
  let dist = Array.make n max_int in
  let count = Array.make n 0.0 in
  let queue = Queue.create () in
  dist.(dest) <- 0;
  count.(dest) <- 1.0;
  Queue.add dest queue;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    let inc = Network.in_channels net u in
    for i = 0 to Array.length inc - 1 do
      let v = Network.src net inc.(i) in
      if dist.(v) = max_int then begin
        dist.(v) <- dist.(u) + 1;
        Queue.add v queue
      end;
      if dist.(v) = dist.(u) + 1 then count.(v) <- count.(v) +. count.(u)
    done
  done;
  (dist, count)

type tree = {
  root : int;
  parent_channel : int array;
  tree_channel : bool array;
  order : int array;
}

let spanning_tree net ~root =
  let n = Network.num_nodes net in
  let parent_channel = Array.make n (-1) in
  let tree_channel = Array.make (Network.num_channels net) false in
  let order = Array.make n (-1) in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(root) <- true;
  Queue.add root queue;
  let pos = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    order.(!pos) <- u;
    incr pos;
    let adj = Network.out_channels net u in
    for i = 0 to Array.length adj - 1 do
      let c = adj.(i) in
      let v = Network.dst net c in
      if not seen.(v) then begin
        seen.(v) <- true;
        (* v's parent is u; the parent channel points v -> u. *)
        parent_channel.(v) <- Network.rev net c;
        tree_channel.(c) <- true;
        tree_channel.(Network.rev net c) <- true;
        Queue.add v queue
      end
    done
  done;
  if !pos <> n then
    invalid_arg "Graph_algo.spanning_tree: network is disconnected";
  { root; parent_channel; tree_channel; order }

let tree_next_channel net tree ~dest =
  let n = Network.num_nodes net in
  let next = Array.make n (-1) in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(dest) <- true;
  Queue.add dest queue;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    let adj = Network.out_channels net u in
    for i = 0 to Array.length adj - 1 do
      let c = adj.(i) in
      if tree.tree_channel.(c) then begin
        let v = Network.dst net c in
        if not seen.(v) then begin
          seen.(v) <- true;
          next.(v) <- Network.rev net c;
          Queue.add v queue
        end
      end
    done
  done;
  next

let path_of_next net ~next ~src =
  let n = Network.num_nodes net in
  let rec go node hops acc =
    if next.(node) = -1 then Some (List.rev acc)
    else if hops > n then None (* next-table loops *)
    else begin
      let c = next.(node) in
      go (Network.dst net c) (hops + 1) (c :: acc)
    end
  in
  go src 0 []
