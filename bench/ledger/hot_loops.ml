(* hot-loops: all fourteen [Workloads.all] programs on [Config.default]
   (threaded engine) in one domain, each run on a fresh VM, pass after
   pass until the phase has lasted its [seconds] (at least three passes).
   Every metric is taken from each program's median over the passes. Why:
   steady-state translated execution (execution engine, GC) dominates —
   translation is under 1% of VM time — so execution-engine changes show
   here and translator changes do not. The seed only shuffles the order
   of programs in a pass. *)

let min_passes = 3

type inputs = Alpha.Program.t array

let setup (ctx : Common.ctx) : inputs =
  let scale = if ctx.smoke then 1 else 20 in
  Array.of_list
    (List.map
       (fun (w : Workloads.t) -> Minic.compile (w.source ~scale))
       Workloads.all)

let measure (ctx : Common.ctx) (progs : inputs) ~seconds =
  let n = Array.length progs in
  let order = Common.shuffle ~seed:ctx.seed (Array.init n Fun.id) in
  let t0 = Common.now () in
  let ops = ref [] in
  Span.with_ "phase" (fun () ->
      let passes = ref 0 in
      while !passes < min_passes || Common.now () -. t0 < seconds do
        Array.iter (fun i -> ops := Common.run_op progs i :: !ops) order;
        incr passes
      done);
  let ops = Array.of_list !ops in
  let med = Common.per_program n ops in
  let lat_ms = Array.map (fun (s, _) -> 1000.0 *. s) med in
  let mips (s, insns) = float_of_int insns /. s /. 1e6 in
  {
    Common.ops_per_s =
      float_of_int n /. Array.fold_left (fun a (s, _) -> a +. s) 0.0 med;
    guest_mips = Harness.Runner.geomean (Array.to_list (Array.map mips med));
    lat_ms;
    retired =
      Array.fold_left (fun a (o : Common.op) -> a + o.final.insns) 0 ops;
    extra = [];
    verify = Common.verify_ops progs ops lat_ms;
  }

let dispose (_ : inputs) = ()
let probe (_ : inputs) = []
