module example.com/fix

go 1.21
