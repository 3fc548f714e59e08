(* cold-code: a pool of distinct short guest programs, alternating
   between [Oracle.Gen.generate] and [Stress.generate] with seeds derived
   from the run's seed, assembled during set-up. The timed phase runs the
   whole pool, each program on a fresh VM, cycle after cycle until
   [seconds] have passed (at least three cycles), so it covers only
   [Vm.create] and [Vm.run]. No state survives between VMs, so a program
   met again is as cold as the first time; every metric is taken from
   each program's median over the cycles. Why: this is the translator's
   write path — fuzzer traffic and short-lived guests — where about half
   of the retired instructions are interpreted and [Vm.create] rivals
   [Vm.run]; execution-engine changes do not show here. *)

let min_cycles = 3

type inputs = Alpha.Program.t array

let setup (ctx : Common.ctx) : inputs =
  let n = if ctx.smoke then 50 else 1000 in
  Array.init n (fun i ->
      let seed = (ctx.seed * 1_000_003) + i in
      Oracle.Gen.assemble
        (if i mod 2 = 0 then Oracle.Gen.generate ~seed
         else Stress.generate ~seed))

let measure (_ : Common.ctx) (progs : inputs) ~seconds =
  let n = Array.length progs in
  let t0 = Common.now () in
  let ops = ref [] in
  Span.with_ "phase" (fun () ->
      let cycles = ref 0 in
      while !cycles < min_cycles || Common.now () -. t0 < seconds do
        for i = 0 to n - 1 do
          ops := Common.run_op progs i :: !ops
        done;
        incr cycles
      done);
  let ops = Array.of_list !ops in
  let med = Common.per_program n ops in
  let secs = Array.fold_left (fun a (s, _) -> a +. s) 0.0 med in
  let insns = Array.fold_left (fun a (_, i) -> a + i) 0 med in
  let lat_ms = Array.map (fun (s, _) -> 1000.0 *. s) med in
  {
    Common.ops_per_s = float_of_int n /. secs;
    guest_mips = float_of_int insns /. secs /. 1e6;
    lat_ms;
    retired =
      Array.fold_left (fun a (o : Common.op) -> a + o.final.insns) 0 ops;
    extra = [];
    verify = Common.verify_ops progs ops lat_ms;
  }

let dispose (_ : inputs) = ()
let probe (_ : inputs) = []
