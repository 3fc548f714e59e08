let envelope_version = 1

let run_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Some line
    | _ -> None
  with _ -> None

let git_rev () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some sha when sha <> "" -> sha
  | _ -> (
    match run_line "git rev-parse --short HEAD 2>/dev/null" with
    | Some rev -> rev
    | None -> "unknown")

let host () = try Unix.gethostname () with _ -> "unknown"

let date () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.tm_year + 1900)
    (tm.tm_mon + 1) tm.tm_mday tm.tm_hour tm.tm_min tm.tm_sec

let schema_of doc = Option.bind (Json.member "schema" doc) Json.to_str

let telemetry_schema = "ildp-dbt-telemetry/1"

let write_telemetry path ~jobs snapshot =
  let body =
    match Telemetry.to_json snapshot with Json.Obj f -> f | _ -> assert false
  in
  Json.write_file path
    (Json.Obj
       ([
          ("schema", Json.String telemetry_schema);
          ("envelope", Json.Int envelope_version);
          ("git_rev", Json.String (git_rev ()));
          ("date", Json.String (date ()));
          ("host", Json.String (host ()));
          ("jobs", Json.Int jobs);
        ]
       @ body))
