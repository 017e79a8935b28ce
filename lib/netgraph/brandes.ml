(* One pass per BFS source (docs/ALGORITHMS.md, section 4): Brandes' BFS
   over the whole fabric, then the reverse sweep that accumulates each
   node's dependency [delta] on the source, counting member targets
   only, and marks [on_dag]: the members and every node with a DAG
   successor on it. A terminal member's pass is its attachment node's,
   with the terminal one hop in front; only the attachment's own
   dependency differs, and it is summed again without the terminal.
   Nothing is confined to the convex subgraph: a node off every shortest
   member-to-member path adds exactly +0.0. *)

let centrality ?members net =
  let n = Network.num_nodes net in
  let srcs = Network.srcs net and dsts = Network.dsts net in
  let is_member =
    match members with
    | None -> Array.make n true
    | Some ms ->
      let a = Array.make n false in
      Array.iter (fun m -> a.(m) <- true) ms;
      a
  in
  let cb = Array.make n 0.0 and hull = Array.copy is_member in
  let dist = Array.make n max_int in
  let sigma = Array.make n 0.0 in
  let delta = Array.make n 0.0 in
  let on_dag = Array.make n false in
  (* BFS queue: nodes in non-decreasing distance order. *)
  let queue = Array.make n 0 in
  let len = ref 0 and source = ref (-1) in
  let coeff w =
    ((if is_member.(w) then 1.0 else 0.0) +. delta.(w)) /. sigma.(w)
  in
  let pass s =
    for k = 0 to !len - 1 do
      let v = queue.(k) in
      dist.(v) <- max_int;
      sigma.(v) <- 0.0;
      delta.(v) <- 0.0;
      on_dag.(v) <- false
    done;
    source := s;
    dist.(s) <- 0;
    sigma.(s) <- 1.0;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let adj = Network.out_channels net u in
      let d = dist.(u) + 1 and su = sigma.(u) in
      for i = 0 to Array.length adj - 1 do
        let v = dsts.(adj.(i)) in
        if dist.(v) = max_int then begin
          dist.(v) <- d;
          queue.(!tail) <- v;
          incr tail
        end;
        (* Each parallel channel contributes a distinct path. *)
        if dist.(v) = d then sigma.(v) <- sigma.(v) +. su
      done
    done;
    len := !tail;
    (* A node off the DAG has dependency and coefficient +0.0, so its
       predecessors would only add +0.0: skip it. *)
    for k = !len - 1 downto 1 do
      let w = queue.(k) in
      if is_member.(w) || on_dag.(w) then begin
        on_dag.(w) <- true;
        hull.(w) <- true;
        let d = dist.(w) - 1 and cw = coeff w in
        let inc = Network.in_channels net w in
        for i = 0 to Array.length inc - 1 do
          let v = srcs.(inc.(i)) in
          if dist.(v) = d then begin
            delta.(v) <- delta.(v) +. (sigma.(v) *. cw);
            on_dag.(v) <- true
          end
        done
      end
    done
  in
  for m = 0 to n - 1 do
    if is_member.(m) then begin
      let s =
        if Network.is_terminal net m then Network.terminal_attachment net m
        else m
      in
      if s <> !source then pass s;
      (* A terminal's dependency at [s], summed over the DAG successors
         of [s] but [m] in reverse queue order: [sigma.(w)] counts the
         channels s -> w, and [sigma.(s)] is 1 in [m]'s pass. *)
      let own = ref 0.0 in
      if s <> m then begin
        let next = ref 1 in
        while !next < !len && dist.(queue.(!next)) = 1 do incr next done;
        for k = !next - 1 downto 1 do
          let w = queue.(k) in
          if w <> m && on_dag.(w) then begin
            let cw = coeff w in
            for _ = 1 to int_of_float sigma.(w) do
              own := !own +. cw
            done;
            hull.(s) <- true
          end
        done
      end;
      for k = 0 to !len - 1 do
        let v = queue.(k) in
        if v <> m then cb.(v) <- cb.(v) +. if v = s then !own else delta.(v)
      done
    end
  done;
  (* Each unordered pair is counted in both directions (s -> t and
     t -> s), as the paper's formula sums ordered pairs. *)
  (cb, hull)

let most_central ?members net =
  let cb, hull = centrality ?members net in
  let best = ref (-1) in
  for v = 0 to Network.num_nodes net - 1 do
    if hull.(v) && (!best < 0 || cb.(v) > cb.(!best)) then best := v
  done;
  if !best < 0 then invalid_arg "Brandes.most_central: no member";
  !best
