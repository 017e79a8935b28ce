module Network = Nue_netgraph.Network
module Digraph = Nue_cdg.Digraph
module Bitset = Nue_structures.Bitset

type result = {
  vl : int array array;
  layers_used : int;
}

(* Channel pairs of one source path, following the destination tree. *)
let path_edges net ~nexts ~dest ~src =
  let n = Network.num_nodes net in
  let rec walk node prev hops acc =
    if node = dest || hops > n then acc
    else begin
      let c = nexts.(node) in
      if c < 0 || Network.src net c <> node then acc
      else begin
        let acc = match prev with Some p -> (p, c) :: acc | None -> acc in
        walk (Network.dst net c) (Some c) (hops + 1) acc
      end
    end
  in
  walk src None 0 []

let switch_of net n =
  if Network.is_switch net n then n else Network.terminal_attachment net n

(* The assignment works at (destination, source switch) granularity:
   terminals attached to one switch share their path beyond the
   injection link, and a dependency involving a terminal channel can
   never lie on a cycle (terminals have a single link, and U-turns are
   not dependencies), so grouping loses nothing while dividing memory
   and time by the terminals-per-switch factor. *)
let assign net ~dests ~next_channel ~sources =
  let nc = Network.num_channels net in
  let nn = Network.num_nodes net in
  let key (a, b) = (a * nc) + b in
  (* Dedup through a bitset: ascending iteration keeps the switch list
     stable regardless of input order. *)
  let src_switches =
    let seen = Bitset.create nn in
    Array.iter (fun s -> Bitset.add seen (switch_of net s)) sources;
    Array.of_list (Bitset.to_list seen)
  in
  let src_pos = Array.make nn (-1) in
  Array.iteri (fun i sw -> src_pos.(sw) <- i) src_switches;
  let nsrc = Array.length src_switches in
  (* Layer per (dest position, source-switch position), flat; switches
     outside the routed source set stay on layer 0. *)
  let group_layer = Array.make (Array.length dests * nsrc) 0 in
  let layer_of pos sw =
    match src_pos.(sw) with
    | -1 -> 0
    | spos -> group_layer.((pos * nsrc) + spos)
  in
  let set_layer pos sw l = group_layer.((pos * nsrc) + src_pos.(sw)) <- l in
  let all_groups =
    let acc = ref [] in
    Array.iteri
      (fun pos _dest ->
         Array.iter (fun sw -> acc := (pos, sw) :: !acc) src_switches)
      dests;
    !acc
  in
  (* Returns the layers used: this one and those above it. *)
  let rec solve layer groups =
    match groups with
    | [] -> layer + 1
    | _ ->
      let g = Digraph.create nc in
      let incidence = Hashtbl.create 4096 in
      List.iter
        (fun ((pos, sw) as group) ->
           let edges =
             path_edges net ~nexts:next_channel.(pos) ~dest:dests.(pos)
               ~src:sw
           in
           List.iter
             (fun (a, b) ->
                Digraph.add_edge g a b;
                let k = key (a, b) in
                let prev =
                  Option.value ~default:[] (Hashtbl.find_opt incidence k)
                in
                Hashtbl.replace incidence k (group :: prev))
             edges)
        groups;
      let moved = ref [] in
      let rec break () =
        match Digraph.find_cycle g with
        | None -> ()
        | Some cycle ->
          (* Edges along the cycle, closing back to the head. *)
          let edges =
            match cycle with
            | [] -> []
            | first :: _ ->
              let rec pair_up = function
                | [ last ] -> [ (last, first) ]
                | a :: (b :: _ as rest) -> (a, b) :: pair_up rest
                | [] -> []
              in
              pair_up cycle
          in
          (* Move the groups inducing the weakest cycle edge. *)
          let weakest =
            List.fold_left
              (fun best (a, b) ->
                 let m = Digraph.multiplicity g a b in
                 match best with
                 | Some (_, bm) when bm <= m -> best
                 | _ -> Some ((a, b), m))
              None edges
          in
          (match weakest with
           | None -> ()
           | Some ((a, b), _) ->
             let victims =
               Option.value ~default:[]
                 (Hashtbl.find_opt incidence (key (a, b)))
             in
             List.iter
               (fun (pos, sw) ->
                  if layer_of pos sw = layer then begin
                    set_layer pos sw (layer + 1);
                    moved := (pos, sw) :: !moved;
                    List.iter
                      (fun (x, y) -> Digraph.remove_edge g x y)
                      (path_edges net ~nexts:next_channel.(pos)
                         ~dest:dests.(pos) ~src:sw)
                  end)
               victims);
          break ()
      in
      break ();
      if !moved = [] then layer + 1 else solve (layer + 1) !moved
  in
  let layers_used = solve 0 all_groups in
  (* Materialize per-node VLs from the group layers. *)
  let vl =
    Array.mapi
      (fun pos _dest ->
         Array.init nn (fun node -> layer_of pos (switch_of net node)))
      dests
  in
  { vl; layers_used }
