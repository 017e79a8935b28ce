module Network = Nue_netgraph.Network
module Graph_algo = Nue_netgraph.Graph_algo

let route ?dests ?sources net =
  let dests = match dests with Some d -> d | None -> Network.terminals net in
  let sources =
    match sources with Some s -> s | None -> Network.terminals net
  in
  let nn = Network.num_nodes net in
  let load = Array.make (Network.num_channels net) 0.0 in
  let walk = Verify.walk net in
  (* The BFS distance fields are pure functions of the destination, so
     they shard over the pool with results slotted by index. The
     load-aware channel selection stays sequential against the live
     loads — identical semantics (and bytes) to the sequential loop. *)
  let dist_fields = Array.make (Array.length dests) [||] in
  Nue_parallel.Pool.run ~label:"minhop.bfs" ~n:(Array.length dests) (fun i ->
    dist_fields.(i) <- Graph_algo.bfs_distances net dests.(i));
  let next_channel =
    Array.mapi
      (fun di dest ->
        let dist = dist_fields.(di) in
        let nexts = Array.make nn (-1) in
        for node = 0 to nn - 1 do
          if node <> dest && dist.(node) < max_int then begin
            (* Among the channels that make progress toward [dest],
               prefer the least-loaded (then the lowest id). *)
            let best = ref (-1) in
            let adj = Network.out_channels net node in
            for i = 0 to Array.length adj - 1 do
              let c = adj.(i) in
              if dist.(Network.dst net c) = dist.(node) - 1 then
                if !best < 0 || load.(c) < load.(!best) then best := c
            done;
            nexts.(node) <- !best
          end
        done;
        Balance.update_weights ~walk net ~weights:load ~nexts ~dest ~sources;
        nexts)
      dests
  in
  Table.make ~net ~algorithm:"minhop" ~dests ~next_channel
    ~vl:Table.All_zero ~num_vls:1 ()
