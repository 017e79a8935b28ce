(* Machine-readable bench output: every experiment that records its
   numbers adds a JSON section here, and main.ml writes the accumulated
   report to BENCH_nue.json at the end of the run. CI uploads the file
   as an artifact and fails if it is missing or unparseable. *)

module Json = Nue_pipeline.Json

let path = "BENCH_nue.json"

let entries : (string * Json.t) list ref = ref []

(* Last write wins so a re-run experiment replaces its section. *)
let add name v =
  entries := (name, v) :: List.remove_assoc name !entries

let write () =
  let report =
    Json.Obj
      [ ("schema", Json.Str "nue-bench/2");
        ("generated_unix_time", Json.Float (Unix.gettimeofday ()));
        ("experiments", Json.Obj (List.rev !entries)) ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string_pretty report);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d experiment section(s))\n" path
    (List.length !entries)
