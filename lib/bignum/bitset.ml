type t = int array

let bits_per_word = Sys.int_size - 1
let words_for width = (width + bits_per_word - 1) / bits_per_word

let popword m =
  let rec pop m acc = if m = 0 then acc else pop (m land (m - 1)) (acc + 1) in
  pop m 0

let lowword m =
  (* Index of the lowest set bit of a nonzero word. *)
  let b = m land -m in
  let rec log2 b acc = if b = 1 then acc else log2 (b lsr 1) (acc + 1) in
  log2 b 0

let zero ~width = Array.make (words_for width) 0

let full ~width =
  let m = zero ~width in
  let fullw = width / bits_per_word and rem = width mod bits_per_word in
  (* [max_int] is exactly [bits_per_word] ones. *)
  for k = 0 to fullw - 1 do
    m.(k) <- max_int
  done;
  if rem > 0 then m.(fullw) <- (1 lsl rem) - 1;
  m

let set_inplace m i =
  m.(i / bits_per_word) <- m.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let clear_inplace m i =
  m.(i / bits_per_word) <-
    m.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word))

let set m i =
  let m' = Array.copy m in
  set_inplace m' i;
  m'

let test m i = m.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0
let union a b = Array.init (Array.length a) (fun k -> a.(k) lor b.(k))
let inter a b = Array.init (Array.length a) (fun k -> a.(k) land b.(k))

let subset a b =
  let rec go k = k = Array.length a || (a.(k) land b.(k) = a.(k) && go (k + 1)) in
  go 0

let popcount m = Array.fold_left (fun acc w -> acc + popword w) 0 m

let popcount_inter a b =
  let acc = ref 0 in
  for k = 0 to Array.length a - 1 do
    acc := !acc + popword (a.(k) land b.(k))
  done;
  !acc

let iter f m =
  for k = 0 to Array.length m - 1 do
    let rest = ref m.(k) in
    while !rest <> 0 do
      f ((k * bits_per_word) + lowword !rest);
      rest := !rest land (!rest - 1)
    done
  done

let compare a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let rec go k =
      if k < 0 then 0
      else
        let c = Int.compare a.(k) b.(k) in
        if c <> 0 then c else go (k - 1)
    in
    go (Array.length a - 1)
