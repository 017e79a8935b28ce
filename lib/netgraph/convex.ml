let nodes net members =
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
