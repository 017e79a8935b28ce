module Network = Nue_netgraph.Network
module Prng = Nue_structures.Prng
module Bitset = Nue_structures.Bitset

type strategy =
  | Kway
  | Random
  | Clustered

let strategy_name = function
  | Kway -> "kway"
  | Random -> "random"
  | Clustered -> "clustered"

(* {1 Multilevel k-way partitioning}

   Operates on a weighted switch graph: vertex weight = number of
   destinations attached, edge weight = number of parallel links. The
   three classic phases (Karypis & Kumar): coarsen by heavy-edge
   matching, partition the small graph greedily, then uncoarsen with
   boundary refinement at every level. *)

type wgraph = {
  vwgt : int array; (* vertex weights *)
  (* Compressed rows: [v]'s neighbours at [row.(v) .. row.(v + 1) - 1],
     ascending, with the summed weight of the edges to each. *)
  row : int array;
  nbr : int array;
  ewgt : int array;
  coarse_of : int array; (* fine vertex -> coarse vertex *)
}

(* Compressed rows for [n] vertices. [iter emit] calls [emit r c w] for
   each entry (neighbour [c] of [r], weight [w]), listing every row's
   entries in ascending [c]; it runs twice, to count distinct neighbours
   and then to place them. A row's repeated neighbours thus arrive
   together and merge, summing their weights, and rows come out
   ascending without a sort. *)
let build n ~vwgt ~coarse_of iter =
  let row = Array.make (n + 1) 0 and last = Array.make n (-1) in
  iter (fun r c _ ->
      if last.(r) <> c then row.(r + 1) <- row.(r + 1) + 1;
      last.(r) <- c);
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v + 1) + row.(v)
  done;
  let nbr = Array.make row.(n) 0 and ewgt = Array.make row.(n) 0 in
  let fill = Array.sub row 0 n in
  iter (fun r c w ->
      let i = fill.(r) in
      if i > row.(r) && nbr.(i - 1) = c then ewgt.(i - 1) <- ewgt.(i - 1) + w
      else begin
        nbr.(i) <- c;
        ewgt.(i) <- w;
        fill.(r) <- i + 1
      end);
  { vwgt; row; nbr; ewgt; coarse_of }

let switch_graph net ~dest_weight =
  let sw = Network.switches net in
  let dsts = Network.dsts net in
  let index = Array.make (Network.num_nodes net) (-1) in
  Array.iteri (fun i s -> index.(s) <- i) sw;
  let n = Array.length sw in
  let vwgt = Array.map dest_weight sw in
  (* One entry per channel between switches: parallel links sum. *)
  let iter emit =
    for i = 0 to n - 1 do
      let adj = Network.out_channels net sw.(i) in
      for a = 0 to Array.length adj - 1 do
        let j = index.(dsts.(adj.(a))) in
        if j >= 0 then emit j i 1
      done
    done
  in
  (build n ~vwgt ~coarse_of:[||] iter, index)

let num_vertices g = Array.length g.vwgt

(* Heavy-edge matching: visit vertices in random order, match each
   unmatched vertex with its heaviest unmatched neighbor. *)
let coarsen prng g =
  let n = num_vertices g in
  let mate = Array.make n (-1) in
  let order = Array.init n (fun i -> i) in
  Prng.shuffle prng order;
  Array.iter
    (fun v ->
       if mate.(v) < 0 then begin
         let best = ref (-1) and best_w = ref min_int in
         for i = g.row.(v) to g.row.(v + 1) - 1 do
           let u = g.nbr.(i) and w = g.ewgt.(i) in
           (* Explicit lowest-id tie-break: the winner must not depend
              on adjacency construction order. *)
           if mate.(u) < 0 && u <> v
              && (w > !best_w || (w = !best_w && u < !best))
           then begin
             best := u;
             best_w := w
           end
         done;
         if !best >= 0 then begin
           mate.(v) <- !best;
           mate.(!best) <- v
         end
         else mate.(v) <- v
       end)
    order;
  (* Coarse ids ascend with their lower fine vertex, [first]. *)
  let coarse_of = Array.make n (-1) in
  let first = Array.make n 0 in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if coarse_of.(v) < 0 then begin
      coarse_of.(v) <- !count;
      coarse_of.(mate.(v)) <- !count;
      first.(!count) <- v;
      incr count
    end
  done;
  let cn = !count in
  let vwgt = Array.make cn 0 in
  for v = 0 to n - 1 do
    vwgt.(coarse_of.(v)) <- vwgt.(coarse_of.(v)) + g.vwgt.(v)
  done;
  (* Coarse vertices in ascending id list their members' fine edges to
     other coarse vertices. *)
  let iter emit =
    for c = 0 to cn - 1 do
      let each v =
        for i = g.row.(v) to g.row.(v + 1) - 1 do
          let cu = coarse_of.(g.nbr.(i)) in
          if cu <> c then emit cu c g.ewgt.(i)
        done
      in
      let v = first.(c) in
      each v;
      if mate.(v) <> v then each mate.(v)
    done
  in
  build cn ~vwgt ~coarse_of iter

(* [conn.(p)] becomes the weight of [v]'s edges into part [p], over its
   assigned neighbours. *)
let connection g part conn v =
  Array.fill conn 0 (Array.length conn) 0;
  for i = g.row.(v) to g.row.(v + 1) - 1 do
    let p = part.(g.nbr.(i)) in
    if p >= 0 then conn.(p) <- conn.(p) + g.ewgt.(i)
  done

(* Greedy region growing on the coarsest graph: grow each part from a
   random seed by absorbing the frontier vertex with the strongest
   connection until the part reaches its weight quota. *)
let initial_partition prng g k =
  let n = num_vertices g in
  let total = Array.fold_left ( + ) 0 g.vwgt in
  let quota = (total + k - 1) / k in
  let part = Array.make n (-1) in
  let order = Array.init n (fun i -> i) in
  Prng.shuffle prng order;
  let next_seed = ref 0 in
  let rec find_seed () =
    if !next_seed >= n then -1
    else begin
      let v = order.(!next_seed) in
      incr next_seed;
      if part.(v) < 0 then v else find_seed ()
    end
  in
  (* Frontier as a bitset over the coarsest graph plus a flat gain
     array; ascending iteration makes the lowest-id tie-break free. *)
  let gain = Array.make n 0 in
  let frontier = Bitset.create n in
  for p = 0 to k - 1 do
    let seed = find_seed () in
    if seed >= 0 then begin
      let weight = ref 0 in
      Bitset.clear frontier;
      Bitset.add frontier seed;
      gain.(seed) <- max_int;
      let continue = ref true in
      while !continue && !weight < quota do
        (* Strongest-connected unassigned frontier vertex. *)
        let best = ref (-1) and best_g = ref min_int in
        Bitset.iter
          (fun v ->
             let gv = gain.(v) in
             if part.(v) < 0 && gv > !best_g then begin
               best := v;
               best_g := gv
             end)
          frontier;
        if !best < 0 then continue := false
        else begin
          let v = !best in
          Bitset.remove frontier v;
          part.(v) <- p;
          weight := !weight + g.vwgt.(v);
          for i = g.row.(v) to g.row.(v + 1) - 1 do
            let u = g.nbr.(i) in
            if part.(u) < 0 then begin
              if not (Bitset.mem frontier u) then begin
                Bitset.add frontier u;
                gain.(u) <- 0
              end;
              gain.(u) <- gain.(u) + g.ewgt.(i)
            end
          done
        end
      done
    end
  done;
  (* Any stragglers join their best-connected (or lightest) part. *)
  let conn = Array.make k 0 in
  for v = 0 to n - 1 do
    if part.(v) < 0 then begin
      connection g part conn v;
      let best = ref 0 in
      for p = 1 to k - 1 do
        if conn.(p) > conn.(!best) then best := p
      done;
      part.(v) <- !best
    end
  done;
  part

(* Boundary refinement: move a vertex to a neighboring part when that
   reduces the cut without overloading the target part. A few sweeps
   suffice at each level. *)
let refine g k part =
  let n = num_vertices g in
  let total = Array.fold_left ( + ) 0 g.vwgt in
  let quota = ((total + k - 1) / k) + (total / (8 * k)) + 1 in
  let pweight = Array.make k 0 in
  for v = 0 to n - 1 do
    pweight.(part.(v)) <- pweight.(part.(v)) + g.vwgt.(v)
  done;
  let sweeps = 4 in
  let conn = Array.make k 0 in
  for _ = 1 to sweeps do
    for v = 0 to n - 1 do
      let home = part.(v) in
      connection g part conn v;
      let best = ref home in
      for p = 0 to k - 1 do
        if
          p <> home
          && conn.(p) > conn.(!best)
          && pweight.(p) + g.vwgt.(v) <= quota
          && pweight.(home) - g.vwgt.(v) > 0
        then best := p
      done;
      if !best <> home && conn.(!best) > conn.(home) then begin
        pweight.(home) <- pweight.(home) - g.vwgt.(v);
        pweight.(!best) <- pweight.(!best) + g.vwgt.(v);
        part.(v) <- !best
      end
    done
  done

let kway_switch_partition prng net ~dest_weight ~k =
  let g0, index = switch_graph net ~dest_weight in
  (* Coarsening ladder. *)
  let target = max (4 * k) 32 in
  let rec ladder gs g =
    if num_vertices g <= target then g :: gs
    else begin
      let c = coarsen prng g in
      if num_vertices c >= num_vertices g then g :: gs else ladder (g :: gs) c
    end
  in
  let coarsest, finer =
    match ladder [] g0 with
    | c :: f -> (c, f)
    | [] -> assert false
  in
  let part = initial_partition prng coarsest k in
  refine coarsest k part;
  (* Project each level's parts onto the next finer graph [g], whose
     vertices the coarser graph's [coarse_of] maps to its own, and
     refine there. *)
  let part, _ =
    List.fold_left
      (fun (part, coarser) g ->
         let fine = Array.map (fun c -> part.(c)) coarser.coarse_of in
         refine g k fine;
         (fine, g))
      (part, coarsest) finer
  in
  (part, index)

let partition ?(strategy = Kway) ?prng net ~dests ~k =
  if k < 1 then invalid_arg "Partition.partition: k must be >= 1";
  let prng = match prng with Some p -> p | None -> Prng.create 1 in
  if k = 1 then [| Array.copy dests |]
  else begin
    let switch_of d =
      if Network.is_switch net d then d else Network.terminal_attachment net d
    in
    let parts = Array.make k [] in
    let sizes = Array.make k 0 in
    let push p d =
      parts.(p) <- d :: parts.(p);
      sizes.(p) <- sizes.(p) + 1
    in
    (match strategy with
     | Random ->
       let shuffled = Array.copy dests in
       Prng.shuffle prng shuffled;
       Array.iteri (fun i d -> push (i mod k) d) shuffled
     | Clustered ->
       (* Destinations grouped by switch (dense buckets, scanned in
          ascending switch order); groups dealt to the currently
          lightest part. *)
       let by_switch = Array.make (Network.num_nodes net) [] in
       Array.iter
         (fun d -> by_switch.(switch_of d) <- d :: by_switch.(switch_of d))
         dests;
       Array.iter
         (fun ds ->
            if ds <> [] then begin
              let lightest = ref 0 in
              for p = 1 to k - 1 do
                if sizes.(p) < sizes.(!lightest) then lightest := p
              done;
              List.iter (push !lightest) ds
            end)
         by_switch
     | Kway ->
       let dest_count = Array.make (Network.num_nodes net) 0 in
       Array.iter
         (fun d -> dest_count.(switch_of d) <- dest_count.(switch_of d) + 1)
         dests;
       let part, index =
         kway_switch_partition prng net ~dest_weight:(fun s -> dest_count.(s))
           ~k
       in
       Array.iter (fun d -> push part.(index.(switch_of d)) d) dests);
    Array.map (fun l -> Array.of_list (List.rev l)) parts
  end
