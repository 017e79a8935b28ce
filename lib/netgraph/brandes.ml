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

let most_central ?mask ?members net =
  let cb = centrality ?mask ?members net in
  let inside =
    match mask with
    | Some m -> m
    | None -> Array.make (Network.num_nodes net) true
  in
  let best = ref (-1) in
  for v = 0 to Network.num_nodes net - 1 do
    if inside.(v) && (!best < 0 || cb.(v) > cb.(!best)) then best := v
  done;
  if !best < 0 then invalid_arg "Brandes.most_central: empty mask";
  !best
