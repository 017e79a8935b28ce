module Network = Nue_netgraph.Network

type vl_assignment =
  | All_zero
  | Per_dest of int array
  | Per_pair of int array array
  | Per_hop of (src:int -> dest:int -> hop:int -> channel:int -> int)

type t = {
  net : Network.t;
  algorithm : string;
  dests : int array;
  dest_pos : int array;
  next_channel : int array array;
  vl : vl_assignment;
  num_vls : int;
  info : (string * float) list;
}

let make ~net ~algorithm ~dests ~next_channel ~vl ~num_vls ?(info = []) () =
  let dest_pos = Array.make (Network.num_nodes net) (-1) in
  Array.iteri (fun i d -> dest_pos.(d) <- i) dests;
  if Array.length next_channel <> Array.length dests then
    invalid_arg "Table.make: next_channel/dests length mismatch";
  { net; algorithm; dests; dest_pos; next_channel; vl; num_vls; info }

let dest_position t d = t.dest_pos.(d)

let next t ~node ~dest =
  let pos = t.dest_pos.(dest) in
  if pos < 0 then invalid_arg "Table.next: not a routed destination";
  t.next_channel.(pos).(node)

let path t ~src ~dest =
  let pos = t.dest_pos.(dest) in
  if pos < 0 then invalid_arg "Table.path: not a routed destination";
  let nexts = t.next_channel.(pos) in
  let n = Network.num_nodes t.net in
  let rec go node hops acc =
    if node = dest then Some (List.rev acc)
    else if hops > n then None
    else begin
      let c = nexts.(node) in
      if c < 0 || Network.src t.net c <> node then None
      else go (Network.dst t.net c) (hops + 1) (c :: acc)
    end
  in
  go src 0 []

let path_nodes t ~src ~dest =
  match path t ~src ~dest with
  | None -> None
  | Some channels ->
    Some (src :: List.map (fun c -> Network.dst t.net c) channels)

let vl_of t ~src ~dest ~hop ~channel =
  match t.vl with
  | All_zero -> 0
  | Per_dest a -> a.(t.dest_pos.(dest))
  | Per_pair a -> a.(t.dest_pos.(dest)).(src)
  | Per_hop f -> f ~src ~dest ~hop ~channel

let path_with_vls t ~src ~dest =
  match path t ~src ~dest with
  | None -> None
  | Some channels ->
    Some
      (List.mapi
         (fun hop c -> (c, vl_of t ~src ~dest ~hop ~channel:c))
         channels)

let info_value t key = List.assoc_opt key t.info
