(* Routing-table fingerprints for the representation-equivalence suite.

   Prints one `fixture engine table-md5 metrics-md5` line per engine x
   seeded-fixture combination; the second digest is of the table's
   [Experiment.metrics_to_json] (verify report, lanes, forwarding index,
   path lengths, throughput model). test/test_compact.ml pins both: the
   compact int-indexed graph core must keep every seeded table
   byte-identical to the hashtable-era tables recorded here, and the
   statistics read from a table must not move either. Regenerate with

     dune exec tools/fingerprint.exe

   only when a table change is *intended* (and say why in the commit).

   The canonicalization must match [Helpers.table_fingerprint] in
   test/helpers.ml — keep the two in sync. *)

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Table = Nue_routing.Table
module Engine = Nue_routing.Engine
module Experiment = Nue_pipeline.Experiment
module Prng = Nue_structures.Prng

let table_fingerprint (t : Table.t) =
  let buf = Buffer.create 4096 in
  let add_int i = Buffer.add_string buf (string_of_int i); Buffer.add_char buf ',' in
  Buffer.add_string buf t.Table.algorithm;
  Buffer.add_char buf ';';
  add_int t.Table.num_vls;
  Array.iter add_int t.Table.dests;
  Buffer.add_char buf ';';
  Array.iter
    (fun row ->
       Array.iter add_int row;
       Buffer.add_char buf '|')
    t.Table.next_channel;
  Buffer.add_char buf ';';
  (match t.Table.vl with
   | Table.All_zero -> Buffer.add_char buf 'Z'
   | Table.Per_dest a ->
     Buffer.add_char buf 'D';
     Array.iter add_int a
   | Table.Per_pair a ->
     Buffer.add_char buf 'P';
     Array.iter
       (fun row ->
          Array.iter add_int row;
          Buffer.add_char buf '|')
       a
   | Table.Per_hop _ ->
     (* Closures cannot be serialized directly; walk every pair's path
        and record the per-hop (channel, vl) sequence instead. *)
     Buffer.add_char buf 'H';
     let nn = Network.num_nodes t.Table.net in
     Array.iter
       (fun dest ->
          for src = 0 to nn - 1 do
            if src <> dest then
              match Table.path_with_vls t ~src ~dest with
              | None -> ()
              | Some hops ->
                List.iter (fun (c, v) -> add_int c; add_int v) hops;
                Buffer.add_char buf '|'
          done)
       t.Table.dests);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let metrics_fingerprint table =
  Experiment.metrics_to_json (Experiment.measure table)
  |> Nue_pipeline.Json.to_string |> Digest.string |> Digest.to_hex

(* Fixtures mirror test/helpers.ml; the builders must stay in sync. *)

let ring5 () =
  let b = Network.Builder.create ~name:"ring5+shortcut" () in
  let sw = Array.init 5 (fun _ -> Network.Builder.add_switch b) in
  for i = 0 to 4 do
    Network.Builder.connect b sw.(i) sw.((i + 1) mod 5)
  done;
  Network.Builder.connect b sw.(2) sw.(4);
  Array.iter
    (fun s ->
       let t = Network.Builder.add_terminal b in
       Network.Builder.connect b t s)
    sw;
  Network.Builder.build b

let ring n =
  let b = Network.Builder.create ~name:(Printf.sprintf "ring%d" n) () in
  let sw = Array.init n (fun _ -> Network.Builder.add_switch b) in
  for i = 0 to n - 1 do
    Network.Builder.connect b sw.(i) sw.((i + 1) mod n)
  done;
  Array.iter
    (fun s ->
       let t = Network.Builder.add_terminal b in
       Network.Builder.connect b t s)
    sw;
  Network.Builder.build b

let line n =
  let b = Network.Builder.create ~name:(Printf.sprintf "line%d" n) () in
  let sw = Array.init n (fun _ -> Network.Builder.add_switch b) in
  for i = 0 to n - 2 do
    Network.Builder.connect b sw.(i) sw.(i + 1)
  done;
  Array.iter
    (fun s ->
       let t = Network.Builder.add_terminal b in
       Network.Builder.connect b t s)
    sw;
  Network.Builder.build b

let fixtures () =
  let prebuilt ?torus ?tree net =
    Experiment.build (Experiment.setup (Experiment.prebuilt ?torus ?tree net))
  in
  [ ("ring5", prebuilt (ring5 ()));
    ("ring8", prebuilt (ring 8));
    ("line6", prebuilt (line 6));
    ("torus333",
     (let t = Topology.torus3d ~dims:(3, 3, 3) ~terminals_per_switch:2 () in
      prebuilt ~torus:t t.Topology.net));
    ("torus443",
     (let t = Topology.torus3d ~dims:(4, 4, 3) ~terminals_per_switch:2 () in
      prebuilt ~torus:t t.Topology.net));
    ("random12",
     Experiment.build
       (Experiment.setup ~seed:7
          (Experiment.Random { switches = 12; links = 30; terminals = 2 })));
    ("dense16",
     Experiment.build
       (Experiment.setup ~seed:3
          (Experiment.Random { switches = 16; links = 48; terminals = 2 })));
    ("random20",
     (let prng = Prng.create 42 in
      prebuilt
        (Topology.random prng ~switches:20 ~inter_switch_links:50
           ~terminals_per_switch:2 ())));
    ("tree442",
     Experiment.build
       (Experiment.setup
          (Experiment.Kary_ntree { k = 4; n = 2; terminals = 2 }))) ]

let engines_for fixture =
  let base =
    [ "minhop"; "sssp"; "updown"; "dfsssp"; "lash"; "static-cdg"; "nue" ]
  in
  match fixture with
  | "torus333" | "torus443" -> base @ [ "torus2qos" ]
  | "tree442" -> base @ [ "fattree" ]
  | _ -> base

let () =
  List.iter
    (fun (name, built) ->
       List.iter
         (fun engine ->
            match Engine.route engine (Experiment.spec ~vcs:8 built) with
            | Ok table ->
              Printf.printf "%s %s %s %s\n" name engine
                (table_fingerprint table) (metrics_fingerprint table)
            | Error e ->
              Printf.printf "%s %s ERROR:%s\n" name engine
                (Nue_routing.Engine_error.to_string e))
         (engines_for name))
    (fixtures ())
