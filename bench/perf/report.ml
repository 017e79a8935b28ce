(* One run's result: the last line a run prints, as one JSON object
   [{"correct", "attempted", "failed", "metrics": {name: {"value",
   "unit"}}}], plus its parser for the parent and calibration modes. *)

module Json = Nue_pipeline.Json

type metric = { name : string; unit_ : string; value : float }

type t = {
  attempted : int;
  failed : int;
  metrics : metric list;
}

let metric name unit_ value = { name; unit_; value }

let to_line r =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool (r.failed = 0));
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ("metrics",
          Json.Obj
            (List.map
               (fun m ->
                  ( m.name,
                    Json.Obj
                      [ ("value", Json.Float m.value);
                        ("unit", Json.Str m.unit_) ] ))
               r.metrics)) ])

let of_line line =
  let json = Json.of_string line in
  let int k =
    match Option.bind (Json.member k json) Json.to_float_opt with
    | Some x -> int_of_float x
    | None -> raise (Json.Parse_error ("missing " ^ k))
  in
  let metrics =
    match Json.member "metrics" json with
    | Some (Json.Obj fields) ->
      List.map
        (fun (name, m) ->
           let value =
             Option.value ~default:Float.nan
               (Option.bind (Json.member "value" m) Json.to_float_opt)
           in
           let unit_ =
             match Json.member "unit" m with Some (Json.Str u) -> u | _ -> ""
           in
           { name; unit_; value })
        fields
    | _ -> raise (Json.Parse_error "missing metrics")
  in
  { attempted = int "attempted"; failed = int "failed"; metrics }
