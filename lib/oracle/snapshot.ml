module Memory = Machine.Memory

(* Architected-state snapshots and diffs over the Alpha interpreter state.
   See the interface for the comparison rules. *)

type t = {
  pc : int;
  icount : int;
  regs : int64 array;
  out_len : int;
  pages : (int * int64) list;
}

type mismatch =
  | Reg of { r : int; got : int64; want : int64 }
  | Pc of { got : int; want : int }
  | Output of { got : string; want : string }
  | Mem of { addr : int; got : int; want : int }
  | Page of { chunk : int; got : int64 option; want : int64 option }
  | Retire of { got : int; want : int }
  | Outcome of { got : string; want : string }

(* FNV-1a over a page's bytes (unmapped page digests to the empty hash). *)
let page_digest (b : Bytes.t) =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Bytes.length b - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001b3L
  done;
  !h

let default_except = [ Alpha.Reg.at; Alpha.Reg.gp ]

let capture ?(is_private = fun _ -> false) (st : Alpha.Interp.t) =
  let pages =
    Memory.dirty_chunks st.mem
    |> List.filter_map (fun c ->
           if is_private c then None
           else
             match Memory.chunk_bytes st.mem c with
             | Some b -> Some (c, page_digest b)
             | None -> None)
  in
  {
    pc = st.pc;
    icount = st.icount;
    regs = Array.map (Alpha.Interp.get st) (Array.init 32 Fun.id);
    out_len = String.length (Alpha.Interp.output st);
    pages;
  }

let diff_regs ~except got_reg want_reg =
  let ms = ref [] in
  for r = 30 downto 0 do
    if not (List.mem r except) then begin
      let g = got_reg r and w = want_reg r in
      if not (Int64.equal g w) then ms := Reg { r; got = g; want = w } :: !ms
    end
  done;
  !ms

(* Strip the common prefix so the report shows where the streams fork. *)
let diff_output got want =
  if String.equal got want then []
  else begin
    let n = min (String.length got) (String.length want) in
    let i = ref 0 in
    while !i < n && got.[!i] = want.[!i] do
      incr i
    done;
    let tail s = String.sub s !i (String.length s - !i) in
    [ Output { got = tail got; want = tail want } ]
  end

let diff ~got ~want =
  let ms =
    diff_regs ~except:default_except
      (fun r -> got.regs.(r))
      (fun r -> want.regs.(r))
  in
  let ms =
    if got.pc <> want.pc then Pc { got = got.pc; want = want.pc } :: ms else ms
  in
  let ms =
    if got.out_len <> want.out_len then
      Output
        { got = Printf.sprintf "<%d bytes>" got.out_len;
          want = Printf.sprintf "<%d bytes>" want.out_len }
      :: ms
    else ms
  in
  let pages_tbl ps =
    let h = Hashtbl.create 16 in
    List.iter (fun (c, d) -> Hashtbl.replace h c d) ps;
    h
  in
  let gp = pages_tbl got.pages and wp = pages_tbl want.pages in
  let chunks =
    List.sort_uniq compare (List.map fst got.pages @ List.map fst want.pages)
  in
  let page_ms =
    List.filter_map
      (fun c ->
        let g = Hashtbl.find_opt gp c and w = Hashtbl.find_opt wp c in
        if g = w then None else Some (Page { chunk = c; got = g; want = w }))
      chunks
  in
  ms @ page_ms

(* ---------- live comparison ---------- *)

let zero_page = Bytes.make Memory.(1 lsl chunk_bits) '\000'

(* First mismatching byte of a page under "unmapped reads as zero". *)
let first_byte_diff ~chunk a b =
  let a = Option.value ~default:zero_page a
  and b = Option.value ~default:zero_page b in
  if Bytes.equal a b then None
  else begin
    let n = Bytes.length a in
    let i = ref 0 in
    while !i < n && Bytes.get a !i = Bytes.get b !i do
      incr i
    done;
    Some
      (Mem
         {
           addr = (chunk lsl Memory.chunk_bits) + !i;
           got = Char.code (Bytes.get a !i);
           want = Char.code (Bytes.get b !i);
         })
  end

let diff_live ?(except = default_except) ?(is_private = fun _ -> false)
    ?(pc = false) ~mem ~(got : Alpha.Interp.t) ~(want : Alpha.Interp.t) () =
  let ms =
    diff_regs ~except (Alpha.Interp.get got) (Alpha.Interp.get want)
  in
  let ms =
    if pc && got.pc <> want.pc then Pc { got = got.pc; want = want.pc } :: ms
    else ms
  in
  let ms =
    ms @ diff_output (Alpha.Interp.output got) (Alpha.Interp.output want)
  in
  let chunks =
    match mem with
    | `None -> []
    | `Dirty ->
      List.sort_uniq compare
        (Memory.dirty_chunks got.mem @ Memory.dirty_chunks want.mem)
    | `Full ->
      List.sort_uniq compare
        (Memory.mapped_chunks got.mem @ Memory.mapped_chunks want.mem)
  in
  let mem_ms =
    (* report only the first divergent byte — one is enough to localize *)
    List.fold_left
      (fun acc c ->
        match acc with
        | Some _ -> acc
        | None ->
          if is_private c then None
          else
            first_byte_diff ~chunk:c
              (Memory.chunk_bytes got.mem c)
              (Memory.chunk_bytes want.mem c))
      None chunks
  in
  ms @ Option.to_list mem_ms

(* ---------- printing ---------- *)

let escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '\n' -> "\\n"
         | c when Char.code c < 32 || Char.code c > 126 ->
           Printf.sprintf "\\x%02x" (Char.code c)
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let pp_mismatch fmt = function
  | Reg { r; got; want } ->
    Format.fprintf fmt "reg %s: vm=%#Lx ref=%#Lx" Alpha.Reg.names.(r) got want
  | Pc { got; want } -> Format.fprintf fmt "pc: vm=%#x ref=%#x" got want
  | Output { got; want } ->
    Format.fprintf fmt "output forks: vm=%S.. ref=%S.."
      (escape (String.sub got 0 (min 16 (String.length got))))
      (escape (String.sub want 0 (min 16 (String.length want))))
  | Mem { addr; got; want } ->
    Format.fprintf fmt "mem[%#x]: vm=%#x ref=%#x" addr got want
  | Page { chunk; got; want } ->
    let d = function
      | Some h -> Printf.sprintf "%#Lx" h
      | None -> "<never written>"
    in
    Format.fprintf fmt "page %#x digest: vm=%s ref=%s"
      (chunk lsl Memory.chunk_bits) (d got) (d want)
  | Retire { got; want } ->
    Format.fprintf fmt
      "reference ended after %d retired insns, VM claims %d — control-flow \
       divergence"
      want got
  | Outcome { got; want } ->
    Format.fprintf fmt "outcome: vm=%s ref=%s" got want

let mismatch_to_string m = Format.asprintf "%a" pp_mismatch m

let pp fmt t =
  Format.fprintf fmt "pc=%#x icount=%d out=%dB@\n" t.pc t.icount t.out_len;
  for r = 0 to 30 do
    if not (Int64.equal t.regs.(r) 0L) then
      Format.fprintf fmt "  %-4s= %#Lx@\n" Alpha.Reg.names.(r) t.regs.(r)
  done;
  List.iter
    (fun (c, d) ->
      Format.fprintf fmt "  page %#x digest %#Lx@\n" (c lsl Memory.chunk_bits) d)
    t.pages
