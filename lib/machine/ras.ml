(* Conventional hardware return address stack, 8 entries (Table 1).

   A circular stack: pushes past the capacity overwrite the oldest entry;
   pops from empty return [None]. Used by the superscalar model when running
   native or straightened Alpha code with ordinary BSR/JSR..RET pairs. *)

type t = { buf : int array; mutable top : int; mutable depth : int }

let create ?(entries = 8) () = { buf = Array.make entries 0; top = 0; depth = 0 }

let clear t =
  t.top <- 0;
  t.depth <- 0

let push t addr =
  t.buf.(t.top) <- addr;
  t.top <- (t.top + 1) mod Array.length t.buf;
  t.depth <- Int.min (t.depth + 1) (Array.length t.buf)

let pop t =
  if t.depth = 0 then None
  else begin
    t.top <- (t.top + Array.length t.buf - 1) mod Array.length t.buf;
    t.depth <- t.depth - 1;
    Some t.buf.(t.top)
  end
