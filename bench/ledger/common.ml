(* What every workload shares: the run context, the record a timed phase
   returns, and the golden reference runs that outputs are checked
   against. The references run the plain Alpha interpreter, which shares
   no code with the translator, translation cache or execution engines
   under test. *)

type ctx = {
  seed : int;
  seconds : float;  (* length of the timed phase *)
  trace : bool;  (* measure twice, [seconds / 2] untraced then traced *)
  smoke : bool;  (* about 1/20 of the work, for the smoke test *)
  expected : string;  (* paper-eval's expected-output file *)
}

(* Worker domains of the pool and the daemon: one per processor. *)
let nproc = Domain.recommended_domain_count ()

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* What one timed phase measured. [verify] runs the reference checks
   outside the timed phase, sets the latency of every failed operation to
   [infinity], and returns (failed, attempted). *)
type phase = {
  ops_per_s : float;
  guest_mips : float;
  lat_ms : float array;  (* one latency per operation, in ms *)
  retired : int;  (* guest V-insns retired in the whole timed phase *)
  extra : (string * float) list;  (* workload-specific layer values *)
  verify : unit -> int * int;
}

let fuel = 1_000_000_000

(* Final architected outcome of one guest run. *)
type final = {
  outcome : string;
  output : string;
  checksum : int64;
  insns : int;  (* V-ISA instructions retired *)
}

let trap_string tr = Format.asprintf "trap:%a" Alpha.Interp.pp_trap tr

let vm_final vm (o : Core.Vm.outcome) =
  let ex = Option.get (Core.Vm.acc_exec vm) in
  {
    outcome =
      (match o with
      | Exit c -> Printf.sprintf "exit:%d" c
      | Fault tr -> trap_string tr
      | Out_of_fuel -> "fuel");
    output = Core.Vm.output vm;
    checksum = Core.Vm.reg_checksum vm;
    insns = vm.Core.Vm.interp_insns + ex.stats.alpha_retired;
  }

(* Time and instructions spent in reference runs, for [verify_s] and
   [alpha.interp_mips]. *)
let golden_s = ref 0.0
let golden_insns = ref 0

let golden prog =
  let st = Alpha.Interp.create prog in
  let o, dt = time (fun () -> Alpha.Interp.run ~fuel st) in
  golden_s := !golden_s +. dt;
  golden_insns := !golden_insns + st.icount;
  {
    outcome =
      (match o with
      | Exit c -> Printf.sprintf "exit:%d" c
      | Fault tr -> trap_string tr
      | Out_of_fuel -> "fuel");
    output = Alpha.Interp.output st;
    checksum = Alpha.Interp.reg_checksum st;
    insns = st.icount;
  }

(* Golden runs of [progs], each made once. *)
let golden_table (progs : Alpha.Program.t array) =
  let tbl = Hashtbl.create 64 in
  fun i ->
    match Hashtbl.find_opt tbl i with
    | Some g -> g
    | None ->
      let g = golden progs.(i) in
      Hashtbl.replace tbl i g;
      g

(* One guest program run on a fresh VM: the operation of hot-loops and
   cold-code. *)
type op = { prog : int; secs : float; final : final }

let run_op (progs : Alpha.Program.t array) i =
  let t = now () in
  let vm =
    Span.with_ ~req:i "vm.create" (fun () ->
        Core.Vm.create ~kind:Core.Vm.Acc progs.(i))
  in
  let o = Span.with_ ~req:i "vm.run" (fun () -> Core.Vm.run ~fuel vm) in
  let secs = now () -. t in
  Core.Vm.publish_obs vm;
  { prog = i; secs; final = vm_final vm o }

(* Each program's median run time over its repeats and its retired
   instruction count: medians keep a stall of the host in one run out of
   the result. *)
let per_program n ops =
  let secs = Array.make n [] and insns = Array.make n 0 in
  Array.iter
    (fun o ->
      secs.(o.prog) <- o.secs :: secs.(o.prog);
      insns.(o.prog) <- o.final.insns)
    ops;
  Array.init n (fun i -> (Stats.median secs.(i), insns.(i)))

(* The [verify] of a phase made of [run_op]s, whose [lat_ms] holds one
   latency per program: each final state against a golden run of its
   program. *)
let verify_ops progs ops lat_ms () =
  let golden = golden_table progs in
  let failed = ref 0 in
  Array.iter
    (fun o ->
      if o.final <> golden o.prog then begin
        incr failed;
        lat_ms.(o.prog) <- infinity
      end)
    ops;
  (!failed, Array.length ops)

(* Times [setup] at least [min] times, and up to [max] times while the
   set-ups have taken less than half a second in all, releasing each
   result before the next set-up starts. Cheap set-ups are repeated more,
   so their median stays steady. *)
let setup_times ?(min = 3) ?(max = 50) ~dispose setup =
  let rec go times =
    let n = List.length times in
    if n >= min && (n >= max || List.fold_left ( +. ) 0.0 times >= 0.5)
    then List.rev times
    else begin
      let x, dt = time setup in
      dispose x;
      go (dt :: times)
    end
  in
  go []

(* Seeded Fisher-Yates shuffle. *)
let shuffle ~seed a =
  let a = Array.copy a in
  let rng = Machine.Rng.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = Machine.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some line -> (
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.0
          | None -> find ())
      in
      find ())
