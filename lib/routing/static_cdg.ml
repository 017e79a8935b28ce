module Network = Nue_netgraph.Network
module Fib_heap = Nue_structures.Fib_heap
module Prng = Nue_structures.Prng

let route ?(seed = 1) ?dests net =
  let dests = match dests with Some d -> d | None -> Network.terminals net in
  let nn = Network.num_nodes net in
  let nc = Network.num_channels net in
  (* Random total order on the channels; a dependency (a, b) survives
     iff rank a < rank b, which makes any induced CDG acyclic. *)
  let rank = Array.init nc (fun i -> i) in
  Prng.shuffle (Prng.create seed) rank;
  let next_channel =
    Array.map
      (fun dest ->
         let nexts = Array.make nn (-1) in
         let ndist = Array.make nn infinity in
         let routed = Array.make nn false in
         let heap = Fib_heap.create () and key = [| 0.0 |] in
         routed.(dest) <- true;
         ndist.(dest) <- 0.0;
         let expand n =
           let e = nexts.(n) in
           Array.iter
             (fun a ->
                let x = Network.src net a in
                if not routed.(x) then begin
                  let ok = n = dest || rank.(a) < rank.(e) in
                  if ok then begin
                    let key = ndist.(n) +. 1.0 in
                    if key < ndist.(x) then Fib_heap.insert heap ~key a
                  end
                end)
             (Network.in_channels net n)
         in
         expand dest;
         let a = ref (Fib_heap.extract_min heap key) in
         while !a >= 0 do
           let x = Network.src net !a in
           if not routed.(x) then begin
             routed.(x) <- true;
             nexts.(x) <- !a;
             ndist.(x) <- key.(0);
             expand x
           end;
           a := Fib_heap.extract_min heap key
         done;
         nexts)
      dests
  in
  Table.make ~net ~algorithm:"static-cdg" ~dests ~next_channel
    ~vl:Table.All_zero ~num_vls:1 ()
