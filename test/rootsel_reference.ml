(* Test-only reference for root selection: the convex subgraph with one
   BFS and one backward DAG sweep per member, and Brandes' algorithm run
   on the subgraph it induces, one BFS per member. The library computes
   both in one pass per BFS source ({!Nue_netgraph.Brandes}); the
   property in test_core.ml holds it to these. *)

module Network = Nue_netgraph.Network

(* Convex subgraph of [members] (paper Definition 8): every member plus
   every node on a shortest path between two members. *)
let convex net members =
  let n = Network.num_nodes net in
  let mask = Array.make n false in
  Array.iter (fun m -> mask.(m) <- true) members;
  let is_member = Array.copy mask in
  let dist = Array.make n max_int in
  (* BFS queue: nodes in non-decreasing distance order, for the sweep. *)
  let queue = Array.make n 0 in
  let on_dag = Array.make n false in
  Array.iter
    (fun s ->
       (* Forward BFS from s. *)
       Array.fill dist 0 n max_int;
       dist.(s) <- 0;
       queue.(0) <- s;
       let head = ref 0 and tail = ref 1 in
       while !head < !tail do
         let u = queue.(!head) in
         incr head;
         let adj = Network.out_channels net u in
         for i = 0 to Array.length adj - 1 do
           let v = Network.dst net adj.(i) in
           if dist.(v) = max_int then begin
             dist.(v) <- dist.(u) + 1;
             queue.(!tail) <- v;
             incr tail
           end
         done
       done;
       (* Backward sweep: a node is on a shortest path from s to some
          member t iff it is a member itself or has a DAG successor that
          is. Processing in decreasing distance order makes one pass
          sufficient. *)
       Array.fill on_dag 0 n false;
       for k = !tail - 1 downto 0 do
         let u = queue.(k) in
         if is_member.(u) && u <> s then on_dag.(u) <- true
         else begin
           let adj = Network.out_channels net u in
           let i = ref 0 in
           while not on_dag.(u) && !i < Array.length adj do
             let v = Network.dst net adj.(!i) in
             if dist.(v) = dist.(u) + 1 && on_dag.(v) then
               on_dag.(u) <- true;
             incr i
           done
         end;
         if on_dag.(u) then mask.(u) <- true
       done)
    members;
  mask

(* C_B per node id on the subgraph induced by [mask], counting only
   shortest paths between members (default: every node of the mask). *)
let centrality ?mask ?members net =
  let n = Network.num_nodes net in
  let inside =
    match mask with
    | Some m -> m
    | None -> Array.make n true
  in
  let is_member =
    match members with
    | None -> Array.copy inside
    | Some ms ->
      let a = Array.make n false in
      Array.iter (fun m -> if inside.(m) then a.(m) <- true) ms;
      a
  in
  let cb = Array.make n 0.0 in
  let dist = Array.make n max_int in
  let sigma = Array.make n 0.0 in
  let delta = Array.make n 0.0 in
  (* BFS queue: nodes in non-decreasing distance order. *)
  let queue = Array.make n 0 in
  for s = 0 to n - 1 do
    if is_member.(s) then begin
      Array.fill dist 0 n max_int;
      Array.fill sigma 0 n 0.0;
      Array.fill delta 0 n 0.0;
      dist.(s) <- 0;
      sigma.(s) <- 1.0;
      queue.(0) <- s;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        let adj = Network.out_channels net u in
        for i = 0 to Array.length adj - 1 do
          let v = Network.dst net adj.(i) in
          if inside.(v) then begin
            if dist.(v) = max_int then begin
              dist.(v) <- dist.(u) + 1;
              queue.(!tail) <- v;
              incr tail
            end;
            (* Each parallel channel contributes a distinct path. *)
            if dist.(v) = dist.(u) + 1 then
              sigma.(v) <- sigma.(v) +. sigma.(u)
          end
        done
      done;
      (* Accumulate dependencies in decreasing-distance order, counting
         only targets that are members. *)
      for k = !tail - 1 downto 0 do
        let w = queue.(k) in
        if w <> s then begin
          let target = if is_member.(w) then 1.0 else 0.0 in
          let coeff = (target +. delta.(w)) /. sigma.(w) in
          let inc = Network.in_channels net w in
          for i = 0 to Array.length inc - 1 do
            let v = Network.src net inc.(i) in
            if inside.(v) && dist.(v) + 1 = dist.(w) then
              delta.(v) <- delta.(v) +. (sigma.(v) *. coeff)
          done
        end
      done;
      (* delta.(v) now holds the dependency of s on v; add it for
         intermediate nodes (v <> s). *)
      for v = 0 to n - 1 do
        if v <> s && inside.(v) then cb.(v) <- cb.(v) +. delta.(v)
      done
    end
  done;
  (* Each undirected pair was counted twice (s->t and t->s); the classic
     definition sums ordered pairs, which is what the paper's formula
     does, so keep both directions. *)
  cb

(* Today's [Rootsel.choose]: the centrality maximizer over the convex
   subgraph, lowest id on ties. *)
let choose net ~dests =
  if Array.length dests = 1 then dests.(0)
  else begin
    let mask = convex net dests in
    let cb = centrality ~mask ~members:dests net in
    let best = ref (-1) in
    for v = 0 to Network.num_nodes net - 1 do
      if mask.(v) && (!best < 0 || cb.(v) > cb.(!best)) then best := v
    done;
    !best
  end
