(** The versioned envelope of the telemetry export ([--telemetry-json]).

    The document is an object whose first fields are the envelope:

    {v
    "schema":  "<family>/<version>",   e.g. "ildp-dbt-telemetry/1"
    "envelope": 1,                     envelope format itself
    "git_rev": "<commit or unknown>",
    "date":    "YYYY-MM-DDTHH:MM:SSZ" (UTC),
    "host":    "<hostname>",
    "jobs":    <worker domains used>
    v}

    followed by the {!Telemetry.to_json} body. *)

val git_rev : unit -> string
(** [GITHUB_SHA] when set (CI), else [git rev-parse --short HEAD], else
    ["unknown"]. Never raises. *)

val schema_of : Json.t -> string option
(** The ["schema"] field of a parsed document (old pre-envelope
    documents have it too). *)

val telemetry_schema : string

val write_telemetry : string -> jobs:int -> Telemetry.snapshot -> unit
(** Write one telemetry document: envelope + {!Telemetry.to_json} body. *)
