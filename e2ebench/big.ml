(* Arbitrary-precision naturals for the reference counter, kept apart
   from the program's own [Nat] so that expected counts never go through
   the arithmetic under test.  Little-endian base-10^4 digit arrays with
   no leading zero digit; zero is the empty array. *)

type t = int array

let base = 10_000

let norm a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let zero = [||]

let of_int n =
  if n < 0 then invalid_arg "Big.of_int: negative";
  let rec go n acc = if n = 0 then acc else go (n / base) ((n mod base) :: acc) in
  Array.of_list (List.rev (go n []))

let one = of_int 1

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s mod base;
    carry := s / base
  done;
  norm r

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let i = ref (la - 1) in
    while !i >= 0 && a.(!i) = b.(!i) do decr i done;
    if !i < 0 then 0 else Stdlib.compare a.(!i) b.(!i)
  end

let equal a b = compare a b = 0

let sub a b =
  if compare a b < 0 then invalid_arg "Big.sub: negative result";
  let r = Array.copy a in
  let borrow = ref 0 in
  for i = 0 to Array.length r - 1 do
    let d = r.(i) - (if i < Array.length b then b.(i) else 0) - !borrow in
    if d < 0 then (r.(i) <- d + base; borrow := 1)
    else (r.(i) <- d; borrow := 0)
  done;
  norm r

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (a.(i) * b.(j)) + !carry in
        r.(i + j) <- s mod base;
        carry := s / base
      done;
      let k = ref (i + lb) in
      while !carry > 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s mod base;
        carry := s / base;
        incr k
      done
    done;
    norm r
  end

let rec pow a e =
  if e = 0 then one
  else
    let h = pow a (e / 2) in
    let h2 = mul h h in
    if e land 1 = 1 then mul h2 a else h2

let product l = List.fold_left mul one l
let sum l = List.fold_left add zero l

let to_string a =
  let n = Array.length a in
  if n = 0 then "0"
  else begin
    let buf = Buffer.create (4 * n) in
    Buffer.add_string buf (string_of_int a.(n - 1));
    for i = n - 2 downto 0 do
      Buffer.add_string buf (Printf.sprintf "%04d" a.(i))
    done;
    Buffer.contents buf
  end

let of_string s =
  if s = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') s) then
    invalid_arg ("Big.of_string: " ^ s);
  let len = String.length s in
  let ndig = (len + 3) / 4 in
  norm
    (Array.init ndig (fun i ->
         let hi = len - (4 * i) in
         let lo = max 0 (hi - 4) in
         int_of_string (String.sub s lo (hi - lo))))
