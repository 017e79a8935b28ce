module Network = Nue_netgraph.Network
module Graph_algo = Nue_netgraph.Graph_algo

let pick_root net =
  (* Minimum-eccentricity switch; ties toward the smaller id. *)
  let best = ref (-1) in
  let best_ecc = ref max_int in
  Array.iter
    (fun s ->
       let dist = Graph_algo.bfs_distances net s in
       let ecc =
         Array.fold_left
           (fun acc d -> if d < max_int && d > acc then d else acc)
           0 dist
       in
       if ecc < !best_ecc then begin
         best_ecc := ecc;
         best := s
       end)
    (Network.switches net);
  if !best < 0 then invalid_arg "Updown.route: no switches";
  !best

(* A channel u -> v points "down" iff it moves away from the root:
   level(v) > level(u), or equal levels and v's id is larger (the id
   tie-break makes the orientation acyclic). *)
let is_down net level c =
  let u = Network.src net c and v = Network.dst net c in
  level.(v) > level.(u) || (level.(v) = level.(u) && v > u)

let route ?root ?dests ?sources net =
  let root = match root with Some r -> r | None -> pick_root net in
  let dests = match dests with Some d -> d | None -> Network.terminals net in
  let sources =
    match sources with Some s -> s | None -> Network.terminals net
  in
  let nn = Network.num_nodes net in
  let level = Graph_algo.bfs_distances net root in
  let load = Array.make (Network.num_channels net) 0.0 in
  let walk = Verify.walk net in
  let next_channel =
    Array.map
      (fun dest ->
         (* dd.(n): length of the shortest all-down path n -> dest.
            Computed by BFS from dest over reversed down channels (the
            down orientation is acyclic, so plain BFS is exact). *)
         let dd = Array.make nn max_int in
         let queue = Queue.create () in
         dd.(dest) <- 0;
         Queue.add dest queue;
         while not (Queue.is_empty queue) do
           let u = Queue.take queue in
           let inc = Network.in_channels net u in
           for i = 0 to Array.length inc - 1 do
             let c = inc.(i) in
             let v = Network.src net c in
             if is_down net level c && dd.(v) = max_int then begin
               dd.(v) <- dd.(u) + 1;
               Queue.add v queue
             end
           done
         done;
         (* Chosen-path length: L(n) = dd(n) when finite (all-down
            continuations serve every predecessor), else
            1 + min over up channels (n, m) of L(m). The up orientation
            is acyclic too, so BFS layers over up channels from the set
            {dd finite} are exact. *)
         let l = Array.copy dd in
         (* Multi-source BFS is inexact for differing initial values;
            use a Dijkstra over unit weights seeded with every node that
            has an all-down continuation. *)
         let heap = Nue_structures.Fib_heap.create () and key = [| 0.0 |] in
         for v = 0 to nn - 1 do
           if dd.(v) < max_int then
             Nue_structures.Fib_heap.insert heap ~key:(float_of_int l.(v)) v
         done;
         (* An improved node is re-inserted; pops whose key no longer
            matches [l] are stale and skipped. Only the final levels are
            read, and they do not depend on the pop order. *)
         let rec drain () =
           let u = Nue_structures.Fib_heap.extract_min heap key in
           if u >= 0 then begin
             if int_of_float key.(0) = l.(u) then begin
               let inc = Network.in_channels net u in
               for i = 0 to Array.length inc - 1 do
                 let c = inc.(i) in
                 let v = Network.src net c in
                 (* v -> u must be an up channel for v. *)
                 if not (is_down net level c) then begin
                   let cand = l.(u) + 1 in
                   if dd.(v) = max_int && cand < l.(v) then begin
                     l.(v) <- cand;
                     Nue_structures.Fib_heap.insert heap
                       ~key:(float_of_int cand) v
                   end
                 end
               done
             end;
             drain ()
           end
         in
         drain ();
         let nexts = Array.make nn (-1) in
         for node = 0 to nn - 1 do
           if node <> dest && l.(node) < max_int then begin
             let adj = Network.out_channels net node in
             let best = ref (-1) in
             for i = 0 to Array.length adj - 1 do
               let c = adj.(i) in
               let m = Network.dst net c in
               let ok =
                 if dd.(node) < max_int then
                   (* Must continue all-down. *)
                   is_down net level c
                   && dd.(m) < max_int
                   && dd.(m) = dd.(node) - 1
                 else
                   (* First hop climbs; continuation is m's own choice. *)
                   (not (is_down net level c)) && l.(m) = l.(node) - 1
               in
               if ok && (!best < 0 || load.(c) < load.(!best)) then best := c
             done;
             nexts.(node) <- !best
           end
         done;
         Balance.update_weights ~walk net ~weights:load ~nexts ~dest ~sources;
         nexts)
      dests
  in
  Table.make ~net ~algorithm:"updown" ~dests ~next_channel
    ~vl:Table.All_zero ~num_vls:1 ()
