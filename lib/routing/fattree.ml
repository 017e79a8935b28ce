module Network = Nue_netgraph.Network

(* Switch ids in a kary_ntree network are laid out level-major:
   level l occupies [l * k^(n-1), (l+1) * k^(n-1)). The word w of a
   switch is its index within the level, read as n-1 base-k digits
   (digit i as produced by Topology.kary_ntree). *)

let route_structured ~k ~n ?dests ?sources net =
  ignore sources;
  let per_level =
    int_of_float (float_of_int k ** float_of_int (n - 1))
  in
  let num_switches = n * per_level in
  if
    Network.num_switches net <> num_switches
    || Array.exists (fun s -> s >= num_switches) (Network.switches net)
  then
    Error
      (Engine_error.Topology_mismatch
         "fattree: network is not a k-ary n-tree built by \
          Topology.kary_ntree")
  else begin
    let level s = s / per_level in
    let word s = s mod per_level in
    let digit w i =
      (* Digit i (0-based from the most significant as in the builder):
         the builder folds digits left to right, so digit 0 is the most
         significant. *)
      (w / int_of_float (float_of_int k ** float_of_int (n - 2 - i))) mod k
    in
    let dests =
      match dests with Some d -> d | None -> Network.terminals net
    in
    let nn = Network.num_nodes net in
    (* The up*/down* channels are determined by the address arithmetic;
       if one is missing the tree has failed links and the deterministic
       routing has no alternative path to offer. *)
    let missing_channel = ref false in
    let next_channel =
      Array.map
        (fun dest ->
           let dw =
             if Network.is_switch net dest then dest
             else Network.terminal_attachment net dest
           in
           let wleaf = word dw in
           let nexts = Array.make nn (-1) in
           for node = 0 to nn - 1 do
             if node <> dest then
               if Network.is_terminal net node then
                 nexts.(node) <- (Network.out_channels net node).(0)
               else if node = dw then begin
                 if Network.is_terminal net dest then
                   match Network.find_channel net node dest with
                   | Some c -> nexts.(node) <- c
                   | None -> missing_channel := true
               end
               else begin
                 let l = level node and w = word node in
                 (* Down-reachable iff the leaf word matches in digits
                    l .. n-2. *)
                 let rec matches i =
                   i >= n - 1 || (digit w i = digit wleaf i && matches (i + 1))
                 in
                 let target =
                   if matches l then begin
                     (* Descend: level l-1 switch agreeing with the leaf
                        in digit l-1 and with w elsewhere. *)
                     let d = l - 1 in
                     let delta = digit wleaf d - digit w d in
                     let stride =
                       int_of_float
                         (float_of_int k ** float_of_int (n - 2 - d))
                     in
                     ((l - 1) * per_level) + w + (delta * stride)
                   end
                   else begin
                     (* Climb: level l+1 switch, free digit l chosen from
                        the destination's leaf address (d-mod-k). *)
                     let d = l in
                     let delta = digit wleaf d - digit w d in
                     let stride =
                       int_of_float
                         (float_of_int k ** float_of_int (n - 2 - d))
                     in
                     ((l + 1) * per_level) + w + (delta * stride)
                   end
                 in
                 match Network.find_channel net node target with
                 | Some c -> nexts.(node) <- c
                 | None -> missing_channel := true
               end
           done;
           nexts)
        dests
    in
    if !missing_channel then
      Error
        (Engine_error.Unroutable
           "fattree: failed links break the deterministic up*/down* paths")
    else
      Ok
        (Table.make ~net ~algorithm:"fattree" ~dests ~next_channel
           ~vl:Table.All_zero ~num_vls:1 ())
  end
