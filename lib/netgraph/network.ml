type kind =
  | Switch
  | Terminal

type t = {
  name : string;
  kinds : kind array;
  csrc : int array;
  cdst : int array;
  crev : int array;
  out_adj : int array array;
  in_adj : int array array;
  switch_ids : int array;
  terminal_ids : int array;
}

module Builder = struct
  type _network = t

  type t = {
    bname : string;
    mutable nkinds : kind list; (* reversed *)
    mutable nnodes : int;
    mutable links : (int * int) list; (* reversed *)
    mutable nlinks : int;
  }

  let create ?(name = "network") () =
    { bname = name; nkinds = []; nnodes = 0; links = []; nlinks = 0 }

  let add_node b k =
    let id = b.nnodes in
    b.nkinds <- k :: b.nkinds;
    b.nnodes <- id + 1;
    id

  let add_switch b = add_node b Switch

  let add_terminal b = add_node b Terminal

  let connect b u v =
    if u = v then invalid_arg "Network.Builder.connect: self-loop";
    if u < 0 || v < 0 || u >= b.nnodes || v >= b.nnodes then
      invalid_arg "Network.Builder.connect: node id out of range";
    b.links <- (u, v) :: b.links;
    b.nlinks <- b.nlinks + 1

  let build b =
    let n = b.nnodes in
    (* [nkinds] is reversed; lay it out directly at final size. *)
    let kinds = Array.make n Switch in
    List.iteri (fun i k -> kinds.(n - 1 - i) <- k) b.nkinds;
    let m = b.nlinks in
    let csrc = Array.make (2 * m) 0 in
    let cdst = Array.make (2 * m) 0 in
    let crev = Array.make (2 * m) 0 in
    let outdeg = Array.make n 0 in
    let indeg = Array.make n 0 in
    List.iteri
      (fun i (u, v) ->
         (* Links were accumulated in reverse; lay channels out in
            insertion order so channel ids are stable. *)
         let l = m - 1 - i in
         let c0 = 2 * l and c1 = (2 * l) + 1 in
         csrc.(c0) <- u; cdst.(c0) <- v;
         csrc.(c1) <- v; cdst.(c1) <- u;
         crev.(c0) <- c1; crev.(c1) <- c0;
         outdeg.(u) <- outdeg.(u) + 1; indeg.(v) <- indeg.(v) + 1;
         outdeg.(v) <- outdeg.(v) + 1; indeg.(u) <- indeg.(u) + 1)
      b.links;
    Array.iteri
      (fun i k ->
         if k = Terminal && outdeg.(i) <> 1 then
           invalid_arg
             (Printf.sprintf
                "Network.Builder.build: terminal %d has %d links (expected 1)"
                i outdeg.(i)))
      kinds;
    let out_adj = Array.init n (fun i -> Array.make outdeg.(i) 0) in
    let in_adj = Array.init n (fun i -> Array.make indeg.(i) 0) in
    let ofill = Array.make n 0 in
    let ifill = Array.make n 0 in
    for c = 0 to (2 * m) - 1 do
      let u = csrc.(c) and v = cdst.(c) in
      out_adj.(u).(ofill.(u)) <- c;
      ofill.(u) <- ofill.(u) + 1;
      in_adj.(v).(ifill.(v)) <- c;
      ifill.(v) <- ifill.(v) + 1
    done;
    let collect k =
      let acc = ref [] in
      for i = n - 1 downto 0 do
        if kinds.(i) = k then acc := i :: !acc
      done;
      Array.of_list !acc
    in
    { name = b.bname; kinds; csrc; cdst; crev; out_adj; in_adj;
      switch_ids = collect Switch; terminal_ids = collect Terminal }
end

let of_links ?name kinds links =
  let b = Builder.create ?name () in
  Array.iter (fun k -> ignore (Builder.add_node b k)) kinds;
  List.iter (fun (u, v) -> Builder.connect b u v) links;
  Builder.build b

let name t = t.name

let num_nodes t = Array.length t.kinds

let kind t i = t.kinds.(i)

let is_switch t i = t.kinds.(i) = Switch

let is_terminal t i = t.kinds.(i) = Terminal

let switches t = t.switch_ids

let terminals t = t.terminal_ids

let num_switches t = Array.length t.switch_ids

let num_terminals t = Array.length t.terminal_ids

let num_channels t = Array.length t.csrc

let src t c = t.csrc.(c)

let dst t c = t.cdst.(c)

let rev t c = t.crev.(c)

let srcs t = t.csrc

let dsts t = t.cdst

let out_channels t i = t.out_adj.(i)

let in_channels t i = t.in_adj.(i)

let out_adjacency t = t.out_adj

let in_adjacency t = t.in_adj

let degree t i = Array.length t.out_adj.(i)

let max_degree t =
  let d = ref 0 in
  for i = 0 to num_nodes t - 1 do
    if degree t i > !d then d := degree t i
  done;
  !d

let find_channel t u v =
  let adj = t.out_adj.(u) in
  let rec go i =
    if i >= Array.length adj then None
    else if t.cdst.(adj.(i)) = v then Some adj.(i)
    else go (i + 1)
  in
  go 0

let duplex_pairs t =
  let m = num_channels t / 2 in
  Array.init m (fun l -> (t.csrc.(2 * l), t.cdst.(2 * l)))

let terminal_attachment t i =
  if not (is_terminal t i) then
    invalid_arg "Network.terminal_attachment: not a terminal";
  t.cdst.(t.out_adj.(i).(0))

let attached_terminals t i =
  let acc = ref [] in
  let adj = t.out_adj.(i) in
  for j = Array.length adj - 1 downto 0 do
    let v = t.cdst.(adj.(j)) in
    if is_terminal t v then acc := v :: !acc
  done;
  Array.of_list !acc

let pp ppf t =
  Format.fprintf ppf "%s: %d switches, %d terminals, %d duplex links"
    t.name (num_switches t) (num_terminals t) (num_channels t / 2)
