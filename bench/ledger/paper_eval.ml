(* paper-eval: every [Harness.Experiments.all] table and figure at scale
   1, each planned and simulated through [Runner.prewarm] on a pool of
   nproc worker domains and then rendered — the path [bench/main.exe]
   takes. Whole passes run until [seconds] have passed (at least one),
   with the simulation caches reset before each pass. Why: reproducing
   the paper is the system's purpose. The timing models, the matched
   engine (forced by the timing sink), [run_ev] and the memo tables and
   pool do the work; threaded-engine changes are bypassed. The inputs are
   the paper's, so the seed changes nothing here.

   Outputs are checked two ways: each experiment's rendered text against
   [expected/paper-eval.txt] (the scale-1 output of the seed commit), and
   each workload's baseline translated run (the Fig. 7 / Table 2 "M"
   configuration) against a golden interpreter run of the image compiled
   in set-up, which must end normally after exactly as many retired
   instructions. *)

module E = Harness.Experiments
module R = Harness.Runner

type inputs = {
  pool : Harness.Pool.t;
  images : Alpha.Program.t array;  (* [Workloads.all] at scale 1 *)
  expected : (string * string) list;  (* experiment id -> rendered text *)
}

let experiments (ctx : Common.ctx) =
  let smoke = [ "table1"; "fig7"; "sec42" ] in
  if ctx.smoke then List.filter (fun (e : E.exp) -> List.mem e.id smoke) E.all
  else E.all

let render (e : E.exp) =
  let b = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer b in
  e.render fmt ~scale:1;
  Format.pp_print_flush fmt ();
  Buffer.contents b

(* The expected file holds each experiment's text after a "#### <id>"
   line. Every rendered text ends in a newline, so the layout
   round-trips. *)
let marker = "#### "

let write_expected path sections =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun (id, text) -> Printf.fprintf oc "%s%s\n%s" marker id text)
        sections)

let read_expected path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let lines = String.split_on_char '\n' text in
  (* the text ends in a newline, which leaves one empty last line *)
  let n = List.length lines in
  let lines = List.filteri (fun i _ -> i < n - 1) lines in
  let close acc (id, body) =
    match id with
    | Some id -> (id, String.concat "\n" (List.rev body) ^ "\n") :: acc
    | None -> acc
  in
  let acc, last =
    List.fold_left
      (fun (acc, (id, body)) line ->
        let m = String.length marker in
        if String.starts_with ~prefix:marker line then
          ( close acc (id, body),
            (Some (String.sub line m (String.length line - m)), []) )
        else (acc, (id, line :: body)))
      ([], (None, []))
      lines
  in
  List.rev (close acc last)

let setup (ctx : Common.ctx) =
  let expected = read_expected ctx.expected in
  let images =
    Array.of_list
      (List.map
         (fun (w : Workloads.t) -> Minic.compile (w.source ~scale:1))
         Workloads.all)
  in
  { pool = Harness.Pool.create ~jobs:Common.nproc (); images; expected }

let dispose inp = Harness.Pool.shutdown inp.pool

(* V-ISA instructions one simulation retired (a memo hit after prewarm). *)
let retired_by = function
  | R.R_orig { w; use_ras; scale } -> (R.original ~use_ras ~scale w).alpha
  | R.R_straight { w; chaining; scale } ->
    let o = R.straight ~chaining ~scale w in
    o.s_alpha + o.s_interp
  | R.R_acc
      { w; isa; chaining; n_accs; fuse_mem; stop_at_translated;
        max_superblock; hot_threshold; ildp; scale } ->
    let o =
      R.acc ~isa ~chaining ~n_accs ~fuse_mem ~stop_at_translated
        ~max_superblock ~hot_threshold ?ildp ~scale w
    in
    o.a_alpha + o.a_interp

(* One pass: plan, simulate and render every experiment in order; returns
   each experiment's text and the V-ISA instructions the pass retired. *)
let pass inp exps =
  R.reset_caches ();
  let texts =
    List.mapi
      (fun k (e : E.exp) ->
        Span.with_ ~req:k "runner.prewarm" (fun () ->
            R.prewarm ~pool:inp.pool (e.plan ~scale:1));
        (e.id, Span.with_ ~req:k "experiment.render" (fun () -> render e)))
      exps
  in
  let runs =
    R.dedup (List.concat_map (fun (e : E.exp) -> e.plan ~scale:1) exps)
  in
  (texts, List.fold_left (fun a r -> a + retired_by r) 0 runs)

(* The operation is a whole pass — one reproduction of the evaluation —
   so [p50_ms] is the time to reproduce it and [ops_per_s] its inverse. *)
let measure (ctx : Common.ctx) inp ~seconds =
  let exps = experiments ctx in
  let t0 = Common.now () in
  let passes = ref [] and retired = ref 0 in
  Span.with_ "phase" (fun () ->
      while !passes = [] || Common.now () -. t0 < seconds do
        let (texts, r), secs = Common.time (fun () -> pass inp exps) in
        passes := (texts, secs) :: !passes;
        retired := !retired + r
      done);
  let wall = Common.now () -. t0 in
  let passes = Array.of_list !passes in
  let lat_ms = Array.map (fun (_, s) -> 1000.0 *. s) passes in
  let verify () =
    let failed = ref 0 in
    Array.iteri
      (fun j (texts, _) ->
        List.iter
          (fun (id, text) ->
            if List.assoc_opt id inp.expected <> Some text then begin
              incr failed;
              lat_ms.(j) <- infinity
            end)
          texts)
      passes;
    List.iteri
      (fun i (w : Workloads.t) ->
        let g = Common.golden inp.images.(i) in
        let dbt = R.acc ~scale:1 w in
        let exits = String.starts_with ~prefix:"exit:" g.outcome in
        if not (exits && g.insns = dbt.a_alpha + dbt.a_interp) then
          incr failed)
      Workloads.all;
    let checks = List.length Workloads.all in
    (!failed, (Array.length passes * List.length exps) + checks)
  in
  {
    Common.ops_per_s = float_of_int (Array.length passes) /. wall;
    guest_mips = float_of_int !retired /. wall /. 1e6;
    lat_ms;
    retired = !retired;
    extra = [];
    verify;
  }

(* [--regen-expected]: render every experiment once and rewrite the file. *)
let regen (ctx : Common.ctx) =
  Harness.Pool.with_pool ~jobs:Common.nproc (fun pool ->
      let texts, _ = pass { pool; images = [||]; expected = [] } E.all in
      write_expected ctx.expected texts)

let probe (_ : inputs) = []
