module Network = Nue_netgraph.Network
module Graph_algo = Nue_netgraph.Graph_algo
module Complete_cdg = Nue_cdg.Complete_cdg
module Bitset = Nue_structures.Bitset

(* Minimal-path next-channel tree toward one destination (lowest channel
   id among equal-distance choices, LASH does not balance). *)
let min_hop_tree net dest =
  let nn = Network.num_nodes net in
  let dist = Graph_algo.bfs_distances net dest in
  let nexts = Array.make nn (-1) in
  for node = 0 to nn - 1 do
    if node <> dest && dist.(node) < max_int then begin
      let adj = Network.out_channels net node in
      let best = ref (-1) in
      for i = 0 to Array.length adj - 1 do
        let c = adj.(i) in
        if dist.(Network.dst net c) = dist.(node) - 1 && !best < 0 then
          best := c
      done;
      nexts.(node) <- !best
    end
  done;
  nexts

(* A layer admits a path's dependencies all or none. A rejected path
   releases the edge that closed the cycle and the edges it admitted
   (removal keeps the order valid), so no edge stays blocked and
   [Blocked_memo] cannot occur; a [Used_memo] edge belongs to an earlier
   path and stays. *)
let admit_path g edges =
  let rec admit added = function
    | [] -> true
    | (a, b) :: rest ->
      (match Complete_cdg.try_use_edge_v g ~from:a ~to_:b with
       | Complete_cdg.Used_memo -> admit added rest
       | Complete_cdg.Search_acyclic -> admit ((a, b) :: added) rest
       | Complete_cdg.Search_cycle | Complete_cdg.Blocked_memo ->
         List.iter
           (fun (x, y) -> Complete_cdg.release g ~from:x ~to_:y)
           ((a, b) :: added);
         false)
  in
  admit [] edges

(* [trees] is indexed by destination-switch position; [src_pos] maps a
   source switch id to its position in [src_switches]. The resulting
   layer table is flat: entry [dpos * |src_switches| + spos], 0 where no
   assignment happened (sw = dw pairs). Layers open as paths need them,
   so the count returned is the requirement. *)
let assign_layers net ~trees ~dest_switches ~src_switches ~src_pos =
  let nsrc = Array.length src_switches in
  let layers = ref [| Complete_cdg.create net |] in
  let layer_of = Array.make (Array.length dest_switches * nsrc) 0 in
  Array.iteri
    (fun dpos dw ->
       let nexts = trees.(dpos) in
       Array.iter
         (fun sw ->
            if sw <> dw then begin
              (* Min-hop paths never turn back, so every dependency is an
                 edge of the layer's complete CDG. *)
              let edges = Layers.path_edges net ~nexts ~dest:dw ~src:sw in
              (* First layer that admits all dependencies. *)
              let rec try_layer l =
                if l >= Array.length !layers then
                  layers := Array.append !layers [| Complete_cdg.create net |];
                if admit_path !layers.(l) edges then l else try_layer (l + 1)
              in
              layer_of.((dpos * nsrc) + src_pos.(sw)) <- try_layer 0
            end)
         src_switches)
    dest_switches;
  (layer_of, Array.length !layers)

let route_structured ?dests ?sources ?(max_vls = 8) net =
  let dests = match dests with Some d -> d | None -> Network.terminals net in
  let sources =
    match sources with Some s -> s | None -> Network.terminals net
  in
  let nn = Network.num_nodes net in
  (* Dedup through a bitset: iteration is ascending by construction, so
     the switch lists are stable whatever order the inputs arrive in. *)
  let switch_set nodes =
    let set = Bitset.create nn in
    Array.iter (fun x -> Bitset.add set (Layers.switch_of net x)) nodes;
    Array.of_list (Bitset.to_list set)
  in
  let dest_switches = switch_set dests in
  let src_switches = switch_set sources in
  let dest_pos = Array.make nn (-1) in
  Array.iteri (fun i dw -> dest_pos.(dw) <- i) dest_switches;
  let src_pos = Array.make nn (-1) in
  Array.iteri (fun i sw -> src_pos.(sw) <- i) src_switches;
  let nsrc = Array.length src_switches in
  (* The per-destination trees have no cross-destination coupling at
     all (LASH does not balance), so they shard over the pool with
     results slotted by index — byte-identical at any job count. *)
  let trees = Array.make (Array.length dest_switches) [||] in
  Nue_parallel.Pool.run ~label:"lash.trees" ~n:(Array.length dest_switches)
    (fun i -> trees.(i) <- min_hop_tree net dest_switches.(i));
  let layer_of, layer_count =
    assign_layers net ~trees ~dest_switches ~src_switches ~src_pos
  in
  if layer_count > max_vls then
    Error
      (Engine_error.Vc_budget_exceeded
         { needed = layer_count; available = max_vls })
  else begin
    let next_channel = Array.map (fun _ -> [||]) dests in
    Nue_parallel.Pool.run ~label:"lash.tables" ~n:(Array.length dests) (fun di ->
      let dest = dests.(di) in
      let dw = Layers.switch_of net dest in
      let tree = trees.(dest_pos.(dw)) in
      let nexts = Array.make nn (-1) in
      for node = 0 to nn - 1 do
        if node <> dest then
          if node = dw then begin
            (* The destination's switch forwards onto the terminal
               link (or, if dest is the switch itself, nowhere). *)
            if Network.is_terminal net dest then
              match Nue_netgraph.Network.find_channel net dw dest with
              | Some c -> nexts.(node) <- c
              | None -> ()
          end
          else if Network.is_terminal net node then
            nexts.(node) <- (Network.out_channels net node).(0)
          else nexts.(node) <- tree.(node)
      done;
      next_channel.(di) <- nexts);
    let vl =
      Array.map
        (fun dest ->
           let dw = Layers.switch_of net dest in
           let dpos = dest_pos.(dw) in
           Array.init nn (fun src ->
               let sw = Layers.switch_of net src in
               if sw = dw then 0
               else
                 match src_pos.(sw) with
                 | -1 -> 0 (* not a routed source switch *)
                 | spos -> layer_of.((dpos * nsrc) + spos)))
        dests
    in
    Ok
      (Table.make ~net ~algorithm:"lash" ~dests ~next_channel
         ~vl:(Table.Per_pair vl) ~num_vls:layer_count
         ~info:[ ("required_vls", float_of_int layer_count) ]
         ())
  end

let required_vcs ?dests ?sources net =
  match route_structured ?dests ?sources ~max_vls:max_int net with
  | Ok t -> t.Table.num_vls
  | Error _ -> assert false (* no budget is below max_int *)
